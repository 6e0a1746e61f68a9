"""Sparse multivectors over Cl(p,q) with real or complex coefficients.

Values are immutable; every operation returns a new multivector.  Coefficients
are stored as complex doubles even in real mode (the imaginary part is pinned
to zero there), so integer-valued inputs stay exact through products, sums and
projections.

A product accumulates into a list of 2**n slots, one per blade mask (a fixed
O(2**n) cost per call, whatever the operand sizes), and reads its left
operand in ascending mask order, so every slot sums in the same order however
the operands list their terms: elements that are ``==`` have ``==`` products,
brackets and exponentials.  Products, sums and ``exp`` list their result
terms in ascending mask order.

``exp`` keeps that order without calling the product: it builds one
sign-folded row per left mask once per call (up to a fixed entry budget)
and reuses it for every series term, and it reads the partial sum's norm
only when an upper bound on that norm no longer rules out stopping.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from enum import Enum
from itertools import compress
from types import MappingProxyType

from .blades import MAX_GENERATORS, Signature, grade, sign_table

# Every blade mask as one shared int object, so that picking the nonzero
# slots of a product allocates no int.
_MASKS = tuple(range(1 << MAX_GENERATORS))

# Entries (one per left mask and right term) that exp's series may keep in
# its row cache per call, at most about 0.4 MB.
_ROW_CACHE_ENTRIES = 4096


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class SignatureMismatch(AlgebraError):
    """Operands live in different Cl(p,q)."""


class FieldMismatch(AlgebraError):
    """Operands (or a scalar) disagree about the coefficient field."""


class RankOutOfRange(AlgebraError):
    """Grade index outside 0..n."""


class ConvergenceFailure(AlgebraError):
    """Power series failed to meet its stopping criterion."""


class Field(Enum):
    REAL = "R"
    COMPLEX = "C"


def _check_coeff(c: complex, field: Field) -> complex:
    if isinstance(c, (str, bool)):  # complex() would parse or count them
        raise TypeError(f"coefficient must be a number, not {type(c).__name__}")
    try:
        c = complex(c)
    except OverflowError:
        raise ValueError("coefficient too large for a double") from None
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {c!r}")
    if field is Field.REAL and c.imag != 0.0:
        raise FieldMismatch(f"imaginary coefficient {c!r} in a real multivector")
    return c


def _check_real(name: str, value) -> None:
    """Refuse a bool where a float is expected, rather than read it as 0.0
    or 1.0."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, not bool")


def _check_tol(tol: float) -> float:
    """Refuse a tolerance under which a ``<= tol`` test passes vacuously
    (inf) or never (nan, negative), and a bool."""
    _check_real("tolerance", tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tolerance must be finite and nonnegative")
    return tol


def _check_int(name: str, value) -> int:
    """``value`` as an int; refuse anything that is not an integer, such as
    a float, a string or a bool, rather than truncate, parse or count it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer (``range`` would raise a bare
    TypeError on it later) or is below 1."""
    if _check_int(name, value) < 1:
        raise ValueError(f"{name} must be at least 1")


def _require_finite(data: dict) -> None:
    """Refuse an arithmetic result that overflowed a double."""
    if not all(map(cmath.isfinite, data.values())):
        raise ValueError("arithmetic result overflows a double")


def _ascending(data: dict) -> dict:
    """``data`` with its keys in ascending order."""
    return {m: data[m] for m in sorted(data)}


def _inf_norm(values) -> float:
    """max of |re| + |im| over complex ``values`` (0.0 when there are none)."""
    return max((abs(c.real) + abs(c.imag) for c in values), default=0.0)


class Multivector:
    """Finite sum of coefficient-weighted basis blades of one Cl(p,q)."""

    __slots__ = ("sig", "field", "_terms")

    def __init__(self, sig: Signature, field: Field, terms=()) -> None:
        if not isinstance(sig, Signature):
            raise TypeError("sig must be a Signature")
        if not isinstance(field, Field):
            raise TypeError("field must be a Field")
        data: dict[int, complex] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for mask, coeff in items:
            sig.check_blade(mask)
            c = _check_coeff(coeff, field)
            c = data.get(mask, 0j) + c
            if c == 0:
                data.pop(mask, None)
            else:
                data[mask] = c
        _require_finite(data)  # each coefficient is finite, but a sum may not be
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", data)

    # Internal: trusted constructor, skips validation of already-clean terms.
    @classmethod
    def _raw(cls, sig: Signature, field: Field, data: dict) -> "Multivector":
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "field", field)
        object.__setattr__(mv, "_terms", data)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the trusted constructor: the
        # validating one would add each coefficient to 0j, which turns a
        # -0.0 part into 0.0.  Terms keep their order and their bits.
        return Multivector._raw, (self.sig, self.field, self._terms)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, sig: Signature, field: Field = Field.COMPLEX) -> "Multivector":
        return cls._raw(sig, field, {})

    @classmethod
    def scalar(cls, sig: Signature, value, field: Field = Field.COMPLEX) -> "Multivector":
        return cls(sig, field, {0: value})

    @classmethod
    def basis_blade(cls, sig: Signature, mask: int, coeff=1,
                    field: Field = Field.COMPLEX) -> "Multivector":
        return cls(sig, field, {mask: coeff})

    # ------------------------------------------------------------------
    # views

    @property
    def terms(self):
        """Read-only mapping of blade mask to coefficient."""
        return MappingProxyType(self._terms)

    def coefficient(self, mask: int) -> complex:
        self.sig.check_blade(mask)
        return self._terms.get(mask, 0j)

    def grades(self) -> set[int]:
        return {grade(m) for m in self._terms}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.sig == other.sig and self.field == other.field
                and self._terms == other._terms)

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{m:#x}: {c}" for m, c in sorted(self._terms.items()))
        return f"Multivector({self.sig}, {self.field.value}, {{{body}}})"

    # ------------------------------------------------------------------
    # ring structure

    def _like(self, other: "Multivector") -> None:
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field.value} vs {other.field.value}")

    def _combine(self, other, op) -> "Multivector":
        # op is operator.add or operator.sub; scaling c by a -1 sign would
        # not give -c exactly when a part of c is a signed zero.  The result
        # lists its terms in ascending mask order, like a product's.
        self._like(other)
        data = dict(self._terms)
        for m, c in other._terms.items():
            s = op(data.get(m, 0j), c)
            if s == 0:
                data.pop(m, None)
            else:
                data[m] = s
        _require_finite(data)
        return Multivector._raw(self.sig, self.field, _ascending(data))

    def __add__(self, other) -> "Multivector":
        return self._combine(other, operator.add)

    def __sub__(self, other) -> "Multivector":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Multivector":
        return Multivector._raw(self.sig, self.field,
                                {m: -c for m, c in self._terms.items()})

    def scale(self, value) -> "Multivector":
        c = _check_coeff(value, self.field)
        # a product of nonzero doubles can underflow to zero, and c may be 0
        data = {m: p for m, v in self._terms.items() if (p := v * c)}
        _require_finite(data)
        return Multivector._raw(self.sig, self.field, data)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.geometric_product(other)
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    def geometric_product(self, other: "Multivector") -> "Multivector":
        self._like(other)
        h, low, high = sign_table(self.sig)
        lo = (1 << h) - 1
        # The XOR of the two sign-table bits is 0 for +1 and 1 for -1, so it
        # picks cb or -cb from pm.  Each pair adds ca * (±cb), which has the
        # bits of sign * ca * cb in every nonzero part (IEEE rounding is
        # symmetric); a zero part whose sign differs is cleared when it is
        # added to a +0j slot.
        rhs = [(b, b & lo, b >> h, (cb, -cb)) for b, cb in other._terms.items()]
        acc = [0j] * self.sig.blade_count
        for a, ca in sorted(self._terms.items()):
            ah = a >> h
            row_lo, row_hi = low[ah.bit_count() & 1][a & lo], high[ah]
            for b, bl, bh, pm in rhs:
                acc[a ^ b] += ca * pm[row_lo[bl] ^ row_hi[bh]]
        # a complex is true when nonzero: the masks of the nonzero slots,
        # zipped with their values
        out = dict(zip(compress(_MASKS, acc), filter(None, acc)))
        _require_finite(out)
        return Multivector._raw(self.sig, self.field, out)

    def commutator(self, other: "Multivector") -> "Multivector":
        """[U, V] = UV - VU."""
        return self.geometric_product(other) - other.geometric_product(self)

    def anticommutator(self, other: "Multivector") -> "Multivector":
        """{U, V} = UV + VU."""
        return self.geometric_product(other) + other.geometric_product(self)

    # ------------------------------------------------------------------
    # projections

    def grade_project(self, k: int) -> "Multivector":
        """Part of fixed grade ``k``; raises RankOutOfRange unless ``k`` is an
        int with 0 <= k <= n (a float or bool is refused)."""
        if not (type(k) is int and 0 <= k <= self.sig.n):
            raise RankOutOfRange(f"grade {k!r} out of range 0..{self.sig.n}")
        data = {m: c for m, c in self._terms.items() if grade(m) == k}
        return Multivector._raw(self.sig, self.field, data)

    def parity_project(self, even: bool) -> "Multivector":
        """Even-grade part when ``even`` is True, odd-grade part when it is
        False; TypeError for anything but a bool (None is not read as
        False)."""
        if type(even) is not bool:
            raise TypeError(f"even must be a bool, not {type(even).__name__}")
        keep = 0 if even else 1
        data = {m: c for m, c in self._terms.items() if grade(m) & 1 == keep}
        return Multivector._raw(self.sig, self.field, data)

    def qtype_project(self, kbar: int) -> "Multivector":
        """Part whose grades are congruent to ``kbar`` mod 4; raises
        ValueError unless ``kbar`` is an int in 0..3 (a float or bool is
        refused, not read as the int it equals)."""
        if type(kbar) is not int or not 0 <= kbar <= 3:
            raise ValueError(f"quaternion type index {kbar!r} must be 0..3")
        data = {m: c for m, c in self._terms.items() if grade(m) & 3 == kbar}
        return Multivector._raw(self.sig, self.field, data)

    # ------------------------------------------------------------------
    # involution and norms

    def conjugate(self) -> "Multivector":
        """Reversion composed with complex conjugation: reverse each blade's
        generator order and complex-conjugate each coefficient.

        Per blade of grade g the reversal contributes (-1)**(g*(g-1)//2),
        i.e. -1 exactly when g mod 4 is 2 or 3; ``WC_PATTERN`` in
        ``quatype.verify`` rests on these signs.  This is not Clifford
        conjugation (reversion composed with grade involution), whose sign
        is -1 when g mod 4 is 1 or 2.
        """
        data = {}
        for m, c in self._terms.items():
            g = grade(m) & 3
            cc = c.conjugate()
            data[m] = -cc if g in (2, 3) else cc
        return Multivector._raw(self.sig, self.field, data)

    def inf_norm(self) -> float:
        """max over stored terms of |re| + |im| (0.0 for the zero element)."""
        return _inf_norm(self._terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.inf_norm() <= _check_tol(tol)

    # ------------------------------------------------------------------
    # exponential

    def exp(self, eps: float = 1e-14, max_terms: int = 200) -> "Multivector":
        """exp(U) by scaling and squaring around a truncated power series.

        The argument is halved until its inf-norm is at most 1, the series
        sum stops once the latest term's inf-norm drops below
        ``eps * (1 + inf-norm of the partial sum)``, and the result is
        squared once per halving; the squarings are public products.

        Each series term is the previous term times u, summed into 2**n
        slots in ``geometric_product``'s order, so its bits equal a series
        of public products.  The first time a left mask a occurs, its
        sign-folded row ``[(a ^ b, ±cb) for each term b of u]`` is built
        from the split sign table; every later term only adds ``ca * (±cb)``
        per entry.  At most ``_ROW_CACHE_ENTRIES`` entries are stored per
        call; past that budget, a new left mask's entries are folded inline
        every term instead, since a row built for one use costs more than it
        saves.

        The stopping test reads the partial sum's norm only when it might
        stop.  An upper bound B on that norm grows by each term's norm, and
        while ``term norm >= eps * (1 + B)`` the exact test cannot stop
        either, because ``eps * (1 + x)`` rounds monotonically in x; so the
        series stops at the same term as one that reads the norm every time.

        ``eps`` must be positive and finite (an infinite one would stop
        after the first term) and not a bool, and ``max_terms`` an integer
        of at least 1.
        Raises ConvergenceFailure if the series uses up ``max_terms`` terms
        first, or if the argument needs 52 or more halvings: each squaring
        doubles the relative error, so after k halvings it is about 2**k
        machine epsilons, and once ``2**k * sys.float_info.epsilon >= 1`` no
        digit of the result is left.
        """
        _check_real("eps", eps)
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError("eps must be finite and positive")
        _check_count("max_terms", max_terms)
        u = self
        halvings = 0
        while u.inf_norm() > 1.0:
            u = u.scale(0.5)
            halvings += 1
        if 2.0 ** halvings * sys.float_info.epsilon >= 1.0:
            raise ConvergenceFailure(
                f"exp argument needs {halvings} halvings, which leave no "
                f"correct digit (argument inf-norm {self.inf_norm()!r})"
            )
        # Rows keep geometric_product's b order; each entry is the same
        # per-pair expression as geometric_product.
        h, low, high = sign_table(self.sig)
        lo = (1 << h) - 1
        rhs = [(b, b & lo, b >> h, (cb, -cb)) for b, cb in u._terms.items()]
        rows = {}
        budget = _ROW_CACHE_ENTRIES
        size = self.sig.blade_count
        acc = {0: 1 + 0j}
        term = dict(acc)
        # bound >= the inf-norm of acc; it restarts from that norm whenever
        # the norm is read.  One step rounds each slot's sum, its norm and
        # the bound's own update a few times, each by at most 2**-53
        # relative; the 2**-40 margin covers one step's rounding, so by
        # induction it covers the additions of all max_terms terms.
        bound = 1.0
        for m in range(1, max_terms + 1):
            slots = [0j] * size
            for a, ca in term.items():  # ascending: filled from the slots
                row = rows.get(a)
                if row is None:
                    ah = a >> h
                    row_lo, row_hi = low[ah.bit_count() & 1][a & lo], high[ah]
                    if budget < len(rhs):
                        for b, bl, bh, pm in rhs:
                            slots[a ^ b] += ca * pm[row_lo[bl] ^ row_hi[bh]]
                        continue
                    row = rows[a] = [(a ^ b, pm[row_lo[bl] ^ row_hi[bh]])
                                     for b, bl, bh, pm in rhs]
                    budget -= len(rhs)
                for t, c in row:
                    slots[t] += ca * c
            # One pass empties the slots: 1/m scaling, running sum, the
            # term's inf-norm and its finite check (1/m <= 1 keeps a finite
            # slot finite, and a non-finite one gives a norm that is not
            # below inf).
            r = 1.0 / m
            term = {}
            term_norm = 0.0
            for k, c in zip(compress(_MASKS, slots), filter(None, slots)):
                c *= r
                if c:
                    term[k] = c
                    x = abs(c.real) + abs(c.imag)
                    if not x <= term_norm:
                        if not x < math.inf:
                            raise ValueError("arithmetic result overflows a double")
                        term_norm = x
                    s = acc.get(k, 0j) + c
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
            bound = (bound + term_norm) * (1.0 + 2.0 ** -40)
            # eps * (1 + x) rounds monotonically in x, so a term that clears
            # the bound's threshold clears the exact one: skip the norm.
            if bound < math.inf and term_norm >= eps * (1.0 + bound):
                continue
            acc_norm = _inf_norm(acc.values())
            if math.isinf(acc_norm):  # |re| + |im| can overflow on finite parts
                _require_finite(acc)
            if term_norm < eps * (1.0 + acc_norm):
                break
            bound = acc_norm
        else:
            raise ConvergenceFailure(
                f"exp series not converged after {max_terms} terms "
                f"(argument inf-norm {self.inf_norm()!r})"
            )
        result = Multivector._raw(self.sig, self.field, _ascending(acc))
        for _ in range(halvings):
            result = result.geometric_product(result)
        return result
