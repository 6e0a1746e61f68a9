"""Sparse multivectors over Cl(p,q) with real or complex coefficients.

Values are immutable; every operation returns a new multivector.  Coefficients
are stored as complex doubles even in real mode (the imaginary part is pinned
to zero there), so integer-valued inputs stay exact through products, sums and
projections.

A product takes one of two paths, which give the same bits (the proof is
in ``Multivector.geometric_product``).  The pair loop accumulates every term
pair into a list of 2**n slots, one per blade mask (a fixed O(2**n) cost per
call, whatever the operand sizes), and reads its left operand in ascending
mask order, so every slot sums in the same order however the operands list
their terms: elements that are ``==`` have ``==`` products, brackets and
exponentials.  Products, sums and ``exp`` list their result terms in
ascending mask order.

The matrix path (``quatype._matrix``) multiplies in the complex
representation of Cl(p,q) by D x D matrices, D = 2**h, h = ceil(n/2).  At
odd n those are block diagonal, split by the central pseudoscalar into
two blocks of size b = 2**(n//2) (at even n, one block, b = D), and only
the blocks are multiplied: about 3 * 2**n * h additions and
2**(n % 2) * b**3 multiply-adds, instead of the pair loop's la * lb.  It
runs when la * lb exceeds that cost and every part of both operands is an
integer with l1(U) * l1(V) * D < 2**53: in practice dense integer products
at n >= 4.  Products at n <= 3, sparse ones and any with a non-integer
part take the pair loop.  The module loads, and a signature's labels and
slot tables are built and cached, on the first product that takes the
path; they hold 0.43 MB at n = 12 and 0.23 MB at n = 11, measured with
tracemalloc.

The pair loop and ``exp`` compute in floats when no operand coefficient has
a nonzero imaginary part (-0.0 counts as zero), whatever the field, and turn
only the nonzero results back into complex.  The bits are those of the
complex arithmetic: there each pair's real part is ``ar*br - (±0)``, the
same double as ``ar*br``, and its imaginary part is a signed zero that the
+0j slots clear.

``exp`` keeps that order without calling the product.  Every series term
lies in the XOR span of the argument's masks, 2**rank blades, which the
series numbers 0 .. 2**rank - 1 in ascending mask order (the sorted XOR
closure), so that numbers XOR as their masks do.  Its slots, its sign-folded
rows and its partial sum are all indexed by that number.  The rows are built
before the series starts, one per span mask in ascending order while they
fit a fixed entry budget (``_ROW_CACHE_ENTRIES``), and reused for every
term; a span mask past the budget folds its signs inline.  The series
cannot overflow at n <= MAX_GENERATORS (``exp`` gives the bound, and a test
pins its premise); only the squarings, public products, can.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from enum import Enum
from itertools import compress
from types import MappingProxyType

from .blades import MAX_GENERATORS, Signature, grade, sign_table

# Every blade mask (and every position in exp's span) as one shared int
# object, so that picking the nonzero slots of a product allocates no int.
_MASKS = tuple(range(1 << MAX_GENERATORS))

# Entries (one per left mask and right term) that exp's series may keep in
# its row cache per call, at most about 0.4 MB.
_ROW_CACHE_ENTRIES = 4096

# Per blade mask, nonzero when reversion flips its sign: grade mod 4 is 2 or 3
# (the popcount has bit 1 set).
_REVERSES = [m.bit_count() & 2 for m in _MASKS]

# sqrt(2), which rounds up: |re| + |im| <= _SQRT2 * abs(c) for a complex c.
_SQRT2 = math.sqrt(2.0)


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


_IMAG = operator.attrgetter("imag")
_REAL = operator.attrgetter("real")


def _real_items(terms: dict):
    """(mask, real part as a float) for each term of ``terms``."""
    return zip(terms, map(_REAL, terms.values()))


def _inf_norm(values) -> float:
    """max of |re| + |im| over complex or float ``values`` (0.0 when there
    are none)."""
    return max((abs(c.real) + abs(c.imag) for c in values), default=0.0)


def _xor_span(masks) -> list:
    """Every XOR of a subset of ``masks``, ascending: the sorted XOR
    closure, numbered so that ``span[i] ^ span[j] == span[i ^ j]``.  ``exp``
    builds a sign-folded row for each of these masks, in this order, before
    its series starts, as long as the rows fit its entry budget; the span
    holds every term of the series, so the series itself builds no row (a
    mask past the budget folds its signs inline).

    The span has a reduced basis, in which no basis vector holds another
    one's leading bit; every span mask is the XOR of the basis vectors that
    the bits of a unique i pick, in ascending order of leading bit.  At the
    highest bit k where i and j differ, the vectors above k are picked by
    both, vector k by one of them, and its leading bit is held by no other
    vector and lies above every bit of the vectors below k: the two masks
    compare as i and j do.  So the sorted list holds that XOR at position
    i, and positions XOR as their masks do.
    """
    span = {0}
    for x in masks:
        if x not in span:
            span |= {s ^ x for s in span}
    return sorted(span)


def _integer_l1(values) -> int | None:
    """Sum of |re| + |im| over complex ``values``, as an exact int, when
    every part is an integer; else None.  README states its exactness bound
    in this sum; the product's matrix path and ``quatype eval``'s note are
    both decided on it."""
    parts = [*map(_REAL, values), *map(_IMAG, values)]
    if not all(map(float.is_integer, parts)):
        return None
    # A float sum of integers is exact while the total is below 2**53;
    # past it only the int sum is, which eval's note prints.
    total = sum(map(abs, parts))
    return int(total) if total < 2 ** 53 else sum(map(abs, map(int, parts)))


def _pair_product(sig: Signature, ta: dict, tb: dict) -> dict:
    """Terms of uv from the pair loop: every term pair adds its signed
    product into one of 2**n slots, a in ascending order and b in ``tb``'s
    order; the nonzero slots in ascending mask order."""
    h, low, high = sign_table(sig)
    lo = (1 << h) - 1
    # The XOR of the two sign-table bits is 0 for +1 and 1 for -1, so it
    # picks cb or -cb from pm.  Each pair adds ca * (±cb), which has the
    # bits of sign * ca * cb in every nonzero part (IEEE rounding is
    # symmetric); a zero part whose sign differs is cleared when it is
    # added to a +0j slot.  When neither operand has a nonzero imaginary
    # part, the loop runs on the real parts as floats, from 0.0 slots:
    # the complex pairs' real parts are the same doubles and their
    # imaginary parts zeros that a +0j slot clears, so only the nonzero
    # results are turned back into complex.
    real = not (any(map(_IMAG, ta.values())) or any(map(_IMAG, tb.values())))
    a_items, b_items = ((_real_items(ta), _real_items(tb)) if real
                        else (ta.items(), tb.items()))
    rhs = [(b, b & lo, b >> h, (cb, -cb)) for b, cb in b_items]
    acc = [0.0 if real else 0j] * sig.blade_count
    for a, ca in sorted(a_items):
        ah = a >> h
        row_lo, row_hi = low[ah.bit_count() & 1][a & lo], high[ah]
        for b, bl, bh, pm in rhs:
            acc[a ^ b] += ca * pm[row_lo[bl] ^ row_hi[bh]]
    # a number is true when nonzero: the masks of the nonzero slots,
    # zipped with their values
    nonzero = zip(compress(_MASKS, acc), filter(None, acc))
    out = {m: c + 0j for m, c in nonzero} if real else dict(nonzero)
    _require_finite(out)
    return out


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
        return Multivector._raw(self.sig, self.field,
                                {m: data[m] for m in sorted(data)})

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
        """UV, from one of two paths with the same bits.

        The matrix path (``_matrix.matrix_product``) runs when both hold:

        1. la * lb > 3 * 2**n * h + 2**(n % 2) * b**3, h = ceil(n/2) and
           b = 2**(n//2): one multiply-add per term pair against the
           matrix path's own cost.  The butterflies of ``_matrix`` build
           both operands and read the product back in about 3 * 2**n * h
           additions, and it multiplies only the diagonal blocks of the
           matrices, one of size b at even n and two at odd n, split by
           the central pseudoscalar;
        2. every re/im part of both operands is an integer, and
           l1(U) * l1(V) * D < 2**53 with D = 2**h, l1 being the sum of
           |re| + |im| over the terms (``_integer_l1``).

        The pair loop (``_pair_product``) runs otherwise.  Under 2, every
        intermediate of both paths is an integer below 2**53, so both are
        exact and give the same values.  Write |z| for |re| + |im|.  Every
        butterfly partial sum that builds an operand is a signed sum of a
        subset of its terms times units i**c, so it has |z| <= l1.  The
        parts of a complex product ab, and the real products that form
        them, are at most |a| * |b|, so an entry of the matrix product and
        its partial sums are at most l1(U) * l1(V); at odd n this holds
        in each block.  A read-back butterfly's partial sums are signed
        sums of a subset of the D product entries with one x-mask (at odd
        n, b entries of each block, so each T+ +- T- is one of them), at
        most D * l1(U) * l1(V), and multiplying a trace by conj(i**c) / D
        only moves, negates and halves parts.  The pair loop's slots are
        at most l1(U) * l1(V).  No sum is ever inexact, so the order of
        summation does not matter (nor does a compensated ``sum``).  The
        zero parts agree too: the pair loop's +0 slots never hold -0.0,
        and the matrix path adds 0j to each result.
        Past the bound, products keep the pair loop's rounding.  A bracket
        is two products on either path.
        """
        self._like(other)
        sig, ta, tb = self.sig, self._terms, other._terms
        la, lb = len(ta), len(tb)
        n = sig.n
        h = (n + 1) // 2
        if la * lb > (3 * h << n) + ((1 << n // 2) ** 3 << n % 2):
            a = _integer_l1(ta.values())
            b = None if a is None else _integer_l1(tb.values())
            if b is not None and (a * b << h) < 1 << 53:
                from . import _matrix  # loads on the path's first product

                return Multivector._raw(sig, self.field,
                                        _matrix.matrix_product(sig, ta, tb))
        return Multivector._raw(sig, self.field, _pair_product(sig, ta, tb))

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
        data = {m: -c.conjugate() if _REVERSES[m] else c.conjugate()
                for m, c in self._terms.items()}
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

        Each series term is the previous term times u, summed in
        ``geometric_product``'s order, so its bits equal a series of public
        products.  Every term lies in the XOR span of u's masks, at most
        2**len(u.terms) blades whatever n is.  ``_xor_span`` lists it in
        ascending order, numbered so that numbers XOR as their masks do;
        each term's slots and the partial sum hold one slot per span mask,
        indexed by that number, so the same slots add in the same order as
        over all 2**n masks.  Before the series starts, the sign-folded row
        ``[(a ^ b, ±cb) for each term b of u]`` of every span mask a is
        built from the split sign table, in ascending order of a, as long
        as the rows hold at most ``_ROW_CACHE_ENTRIES`` entries in all; a
        term entry at a built row only adds ``ca * (±cb)`` per row entry,
        and one past them folds its signs inline, the same sums.  Each
        term adds into the partial sum in place, and the result is built
        from its nonzero slots, which are already in ascending mask order.

        When u has no nonzero imaginary part, the rows, slots and partial sum
        hold floats (as in ``geometric_product``, the bits are the complex
        arithmetic's) and the result is turned back into complex at the end.

        The stopping test reads norms only when it might stop.  Each term
        entry's ``abs`` is read once: for a complex c, hypot(re, im) <=
        |re| + |im| <= sqrt(2) * hypot(re, im), since (|re| + |im|)**2 =
        hypot**2 + 2|re||im| <= 2 * hypot**2.  So a term's largest ``abs``
        A bounds its inf-norm T as A <= T <= sqrt(2) * A (T = A on floats).
        An upper bound B on the partial sum's norm grows by sqrt(2) * A,
        and while ``A >= eps * (1 + B)`` the exact test cannot stop either,
        because T >= A and ``eps * (1 + x)`` rounds monotonically in x.
        Otherwise T is read, and the partial sum's norm over its nonzero
        slots; so the series stops at the same term as one that reads both
        norms every time.

        The series cannot overflow.  After halving, every |c| <= 1; the
        matrix representation is faithful, with unitary blades and
        tr(B_s^H B_t) = D * [s == t], so ||u||_op <= ||u||_F = sqrt(D *
        sum |c|**2) <= sqrt(2**ceil(n/2) * 2**n) = 512 at n = 12.  Each
        coefficient of u**m / m! is at most 512**m / m! <= e**512, and a
        slot sums at most 2**n of them, so every value stays below
        e**(512 + ln(sqrt(2) * 2**12)) = e**520.7, short of the largest
        double's e**709.8.  A test pins this premise at MAX_GENERATORS (it
        fails at 13).  Only the squarings can overflow: public products,
        which raise ValueError.

        ``eps`` must be positive and finite (an infinite one would stop
        after the first term) and not a bool, and ``max_terms`` an integer
        of at least 1.
        Raises ConvergenceFailure if the series uses up ``max_terms`` terms
        first, or if the argument needs 52 or more halvings (an inf-norm
        above 2**51): each squaring doubles the relative error, so after k
        halvings it is about 2**(k - 52): from k = 52 on no digit of the
        result is left.  The loop refuses at the 52nd halving.
        """
        _check_real("eps", eps)
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError("eps must be finite and positive")
        _check_count("max_terms", max_terms)
        u = self
        halvings = 0
        while u.inf_norm() > 1.0:
            if halvings == 51:
                raise ConvergenceFailure(
                    "exp argument needs 52 or more halvings, which leave no "
                    f"correct digit (argument inf-norm {self.inf_norm()!r})"
                )
            u = u.scale(0.5)
            halvings += 1
        # Rows keep geometric_product's b order; each entry is the same
        # per-pair expression as geometric_product.  Slots, rows and the
        # partial sum are indexed by position in the span of u's masks,
        # which holds every series term: position i stands for span[i].
        h, low, high = sign_table(self.sig)
        lo = (1 << h) - 1
        terms = u._terms
        real = not any(map(_IMAG, terms.values()))
        zero, root2 = (0.0, 1.0) if real else (0j, _SQRT2)
        span = _xor_span(terms)
        rhs = [(span.index(b), b & lo, b >> h, (cb, -cb))
               for b, cb in (_real_items(terms) if real else terms.items())]
        rows = []
        for a in span[:_ROW_CACHE_ENTRIES // (len(rhs) or 1)]:
            i, ah = len(rows), a >> h
            row_lo, row_hi = low[ah.bit_count() & 1][a & lo], high[ah]
            rows.append([(i ^ j, pm[row_lo[bl] ^ row_hi[bh]])
                         for j, bl, bh, pm in rhs])
        built = len(rows)
        size = len(span)
        # The partial sum, one slot per span mask.  Every slot starts at +0
        # and a sum of doubles is -0.0 only when both addends are, so no
        # slot part is ever -0.0: a slot whose sum cancels holds +0, the
        # same bits as a slot never touched.
        acc = [zero] * size
        acc[0] = zero + 1
        term = {0: acc[0]}
        # bound >= the inf-norm of acc; it restarts from that norm whenever
        # the norm is read.  One step rounds each slot's sum, its abs, the
        # sqrt(2) factor and the bound's own update a few times, each by at
        # most 2**-52 relative; the 2**-40 margin covers one step's
        # rounding, so by induction it covers the additions of all
        # max_terms terms.
        bound = 1.0
        for m in range(1, max_terms + 1):
            slots = [zero] * size
            for i, ca in term.items():  # ascending: filled from the slots
                if i < built:
                    for t, c in rows[i]:
                        slots[t] += ca * c
                    continue
                a = span[i]
                ah = a >> h
                row_lo, row_hi = low[ah.bit_count() & 1][a & lo], high[ah]
                for j, bl, bh, pm in rhs:
                    slots[i ^ j] += ca * pm[row_lo[bl] ^ row_hi[bh]]
            # One pass empties the slots: 1/m scaling, running sum, the
            # term's largest abs and its finite check (1/m <= 1 keeps a
            # finite slot finite, and a non-finite one gives an abs that is
            # not below inf; abs raises OverflowError when hypot passes the
            # largest double on finite parts).
            r = 1.0 / m
            term = {}
            top = 0.0
            for k, c in zip(compress(_MASKS, slots), filter(None, slots)):
                c *= r
                if c:
                    term[k] = c
                    x = abs(c)
                    if x > top:
                        top = x
                    acc[k] += c
            bound = (bound + root2 * top) * (1.0 + 2.0 ** -40)
            # the term's inf-norm is at least top, and eps * (1 + x) rounds
            # monotonically in x, so a top that clears the bound's threshold
            # clears the exact one: skip both norms.
            if top >= eps * (1.0 + bound):
                continue
            term_norm = top if real else _inf_norm(term.values())
            # the nonzero slots, in ascending mask order: the result if the
            # series stops here, and the only slots whose norm is read
            out = dict(zip(compress(span, acc), filter(None, acc)))
            acc_norm = _inf_norm(out.values())
            if term_norm < eps * (1.0 + acc_norm):
                break
            bound = acc_norm
        else:
            raise ConvergenceFailure(
                f"exp series not converged after {max_terms} terms "
                f"(argument inf-norm {self.inf_norm()!r})"
            )
        if real:
            out = {m: c + 0j for m, c in out.items()}
        result = Multivector._raw(self.sig, self.field, out)
        for _ in range(halvings):
            result = result.geometric_product(result)
        return result
