"""Verification harness for the mod-4 grading layer.

Each claim has one exact decision procedure.  The axioms, grade ladders,
type tables, subspace closures and theorems 5 and 6 are real-bilinear
claims, so the census of basis-blade pairs (``_census``) decides them at
every signature.  Lie-algebra membership is real-linear and is decided on
the real basis elements unit * blade (unit 1 or i); rank coincidence
compares two linear projections on every basis blade.  Theorem 7 proves
both of its claims from the census and then exponentiates sampled elements
as a numeric witness; nothing else samples.

The witness is deterministic: it runs on a splitmix64 generator whose
stream is seeded by hashing ``(cfg.seed, check name)`` with FNV-1a, so two
runs with the same ``CheckConfig`` (sig, seed and samples) produce
byte-identical reports, and a reported counterexample can be replayed by
any implementation of the same generator (the update and output constants
are in ``SplitMix64``).  Sampling draws integer coefficients in [-3, 3] per
real basis element unit * blade (ascending blade masks, 1 before i), and
theorem 7 scales each sample to l1 norm at most 1 before exponentiating it
at ``Multivector.exp``'s defaults (eps 1e-14, at most 200 series terms).  A
witness sample draws for at most k = 8 real basis elements: when the Lie
pattern has more, a partial Fisher-Yates shuffle on the row's stream picks
8 first.  A blade product is +-(a ^ b), so exp(u) and conj(U) U stay in the
XOR span of at most 8 masks, at most 256 blades: ``exp``'s series runs over
that span only, so its cost is bounded at any n, while each product
(conj(U) U, and one squaring per halving in ``exp``) still makes one pass
over 2^n slots.  Every Lie row at n <= 3 has at most 8 real basis
elements, so its draw is dense.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from ._frozen import Frozen
from .blades import Signature, grade, sign_table
from .multivector import (
    Field,
    FieldMismatch,
    Multivector,
    _check_count,
    _check_int,
    _check_tol,
    _inf_norm,
)
from .qtype import (
    CoeffClass,
    OpKind,
    QType,
    SubspacePattern,
    TYPE_ORDER,
    detect_qtype,
    emit_table,
    is_closed,
    main_compose,
    pattern_compose,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output mixes with the
    0xBF58476D1CE4E5B9 / 0x94D049BB133111EB constants and >> 30/27/31."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = _check_int("seed", seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]: lo + next_u64() mod (hi-lo+1).
        TypeError unless both bounds are ints (a bool is refused), and
        ValueError when lo > hi."""
        lo, hi = _check_int("lo", lo), _check_int("hi", hi)
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        return lo + self.next_u64() % (hi - lo + 1)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_subseed(seed: int, name: str) -> int:
    """Per-check stream seed: one splitmix64 output of seed XOR fnv1a64(name)."""
    return SplitMix64((seed & _MASK64) ^ fnv1a64(name)).next_u64()


class Strategy(Enum):
    """The one strategy: every claim is decided exactly at every n, and
    ``CheckConfig.samples`` sizes only theorem 7's exp witness."""

    EXHAUSTIVE = "exhaustive"


class CheckStatus(Enum):
    """PASS: the claim holds.  FAIL: it does not (see the counterexample, or
    the notes).  SKIPPED: it does not apply at the signature (rank, n >= 4)."""

    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


class CheckConfig(Frozen):
    """``sig``: the signature checked.  ``seed`` (mod 2^64) and ``samples``:
    theorem 7's exp witness, ``samples`` draws per row."""

    sig: Signature
    seed: int = 0
    samples: int = 200

    def __init__(self, sig: Signature, seed: int = seed, samples: int = samples) -> None:
        if not isinstance(sig, Signature):
            raise TypeError("sig must be a Signature")
        _check_count("samples", samples)
        seed = _check_int("seed", seed) & _MASK64
        self._store(sig, seed, samples)


class Counterexample(Frozen):
    """``operation(lhs, rhs)`` in ``format_expression`` text, ``rhs`` None
    for a unary operation.  ``component`` names what was measured (the
    type, grade or pattern left, or a defect); ``magnitude`` is its size:
    a basis pair's |coefficient|, else an inf-norm (largest |re| + |im|)."""

    lhs: str
    rhs: Optional[str]
    operation: str
    component: str
    magnitude: float

    def __init__(self, lhs: str, rhs: Optional[str], operation: str, component: str,
                 magnitude: float) -> None:
        self._store(lhs, rhs, operation, component, magnitude)

    def to_dict(self) -> dict:
        return dict(zip(self.__match_args__, self._values()))


class CheckReport(Frozen):
    """The ``status`` of claim ``name``, its ``counterexample`` (or None) and
    ``notes``.  ``cases_run`` counts cases decided, through a failing one:
    basis-blade pairs in a-major order (axioms, grades, tables: (a, b) is
    case a * 2^n + b + 1); one abstract case plus real basis pairs unit *
    blade (closures, theorems 5 and 6); the ambient's closure cases, census
    rows and witness samples (theorem 7); real basis elements (wc); blades
    (rank)."""

    name: str
    status: CheckStatus
    cases_run: int
    counterexample: Optional[Counterexample] = None
    notes: str = ""

    def __init__(self, name: str, status: CheckStatus, cases_run: int,
                 counterexample: Optional[Counterexample] = counterexample,
                 notes: str = notes) -> None:
        self._store(name, status, cases_run, counterexample, notes)

    def to_dict(self) -> dict:
        ce = self.counterexample
        return {"name": self.name, "status": self.status.value, "cases_run": self.cases_run,
                "counterexample": None if ce is None else ce.to_dict(), "notes": self.notes}


class UnknownCheck(Exception):
    """run_suite was handed an identifier it does not know."""


# ----------------------------------------------------------------------
# sampling

def sample_pattern_mv(sig: Signature, pattern: SubspacePattern, rng: SplitMix64,
                      k: Optional[int] = None) -> Multivector:
    """Complex element matching ``pattern``, with integer parts in [-3, 3].

    Blades are visited in ascending mask order; for each allowed part the
    next integer is drawn (real part first), so the element is a pure
    function of the generator state.  With a cap ``k`` and more than k real
    basis elements unit * blade in the pattern, only k of them get a draw:
    a partial Fisher-Yates shuffle of ``_real_basis`` picks them (for i in
    0..k-1, swap position i with position ``next_int(i, len - 1)``), and
    the picked ones draw in the same ascending (mask, 1 before i) order.
    Raises TypeError when the cap is not an int (a bool is refused) and
    ValueError when it is below 1.
    """
    if k is not None:
        _check_count("k", k)
    basis = _real_basis(sig, pattern)
    # each draw is next_int's lo + next_u64() mod (hi - lo + 1), inlined:
    # the bounds are known valid, so next_int's checks are skipped
    if k is not None and len(basis) > k:
        picks = list(range(len(basis)))
        for i in range(k):
            j = i + rng.next_u64() % (len(basis) - i)
            picks[i], picks[j] = picks[j], picks[i]
        basis = [basis[i] for i in sorted(picks[:k])]
    # no validating constructor: the basis masks are valid, and every kept
    # draw is a nonzero integer (adding to 0j clears the -0.0 real part
    # of a negative draw times 1j)
    terms = {}
    for mask, unit in basis:
        v = rng.next_u64() % 7 - 3
        if v:
            terms[mask] = terms.get(mask, 0j) + v * unit
    return Multivector._raw(sig, Field.COMPLEX, terms)


# ----------------------------------------------------------------------
# shared by the checks

def _blade(sig: Signature, mask: int) -> Multivector:
    return Multivector.basis_blade(sig, mask, 1, Field.REAL)


def _half_cells(ab, ba) -> dict:
    """(|x|, |y|, |x & y|, ab[x][y] ^ ba[y][x]) -> its first (x, y), x-major,
    over every pair of half-blades of two square sign-bit tables."""
    cells = {}
    for x in range(len(ab)):
        for y in range(len(ab)):
            key = (grade(x), grade(y), grade(x & y), ab[x][y] ^ ba[y][x])
            cells.setdefault(key, (x, y))
    return cells


@lru_cache(maxsize=None)
def _census(sig: Signature) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """One row (a, b, |a|, |b|, |a ^ b|, s_ab * s_ba) per cell that the
    ordered basis-blade pairs reach (ab = s_ab (a ^ b), ba = s_ba (a ^ b)),
    with the cell's first pair (a, b) in a-major order; rows come in that
    order.  The signs are the kernel's: s_ab = -1 exactly when the bit
    low[|aH| & 1][aL][bL] ^ high[aH][bH] is 1, so the checks built on the
    rows test the kernel itself.  Each half is tallied once, keyed on its
    bit of s_ab * s_ba, the low half per parity pair (|aH|, |bH|) mod 2;
    the halves are joined by that parity, with s_ab * s_ba =
    1 - 2 * (sL ^ sH), and a joined cell's first pair is the least pair of
    the halves' first pairs."""
    h, low, high = sign_table(sig)
    lows = {(pa, pb): _half_cells(low[pa], low[pb])
            for pa in (0, 1) for pb in (0, 1)}
    first = {}
    for (kH, lH, jH, sH), (aH, bH) in _half_cells(high, high).items():
        for (kL, lL, jL, sL), (aL, bL) in lows[kH & 1, lH & 1].items():
            k, l = kL + kH, lL + lH
            cell = (k, l, k + l - 2 * (jL + jH), 1 - 2 * (sL ^ sH))
            pair = (aH << h | aL, bH << h | bL)
            if cell not in first or pair < first[cell]:
                first[cell] = pair
    return tuple(sorted(pair + cell for cell, pair in first.items()))


def _coefficient(op: OpKind, s: int) -> int:
    """|coefficient| of a ^ b in op(a, b) for basis blades with s_ab s_ba = s:
    ab = s_ab (a ^ b) and ba = s s_ab (a ^ b)."""
    if op is OpKind.GEOMETRIC:
        return 1
    return 1 - s if op is OpKind.COMMUTATOR else 1 + s


def _fail(name: str, cases: int, operation: str, lhs: Multivector,
          rhs: Optional[Multivector], component: str, magnitude: float,
          notes: str = "") -> CheckReport:
    """FAIL report whose counterexample is ``operation(lhs, rhs)``."""
    from .exprio import format_expression  # only a failure writes text

    return CheckReport(
        name, CheckStatus.FAIL, cases,
        Counterexample(
            lhs=format_expression(lhs),
            rhs=None if rhs is None else format_expression(rhs),
            operation=operation, component=component, magnitude=magnitude,
        ),
        notes,
    )


# Real basis units of a coefficient: index 0 is 1 (CoeffClass bit 0), index 1
# is i (bit 1).  The product of units u and v is real when u == v.
_UNITS = (1, 1j)


@lru_cache(maxsize=None)
def _real_basis(sig: Signature,
                pattern: SubspacePattern) -> tuple[tuple[int, complex], ...]:
    """(mask, unit) of every real basis element unit * blade of the
    pattern's subspace, in ascending mask order, 1 before i.  The cache
    stays small: a signature has 256 patterns."""
    # per main type, on plain ints (CoeffClass operators are slow)
    units = [tuple(u for bit, u in enumerate(_UNITS) if c >> bit & 1)
             for c in map(int, pattern.classes)]
    return tuple((mask, unit) for mask in sig.blades()
                 for unit in units[grade(mask) & 3])


def _census_leak(sig: Signature, op: OpKind, p1: SubspacePattern,
                 p2: SubspacePattern, target: SubspacePattern
                 ) -> Optional[tuple[int, complex, int, complex, int]]:
    """First real basis pair (unit_a * a, unit_b * b) of P1 x P2, ordered by
    (a, unit_a, b, unit_b), whose ``op`` leaves ``target``, as (a, unit_a,
    b, unit_b, |coefficient|); None when op(P1, P2) lies in ``target``.

    Exact: op is real-bilinear, so the basis pairs decide the claim, and a
    pair's verdict depends only on its census cell (types of a, b and a ^ b,
    and s_ab * s_ba), so each cell's first pair is its earliest leak."""
    classes1, classes2, allowed = ([int(c) for c in p.classes] for p in (p1, p2, target))
    best = None
    for a, b, k, l, g, s in _census(sig):
        if best is not None and a > best[0]:
            break  # rows come in a-major order
        coeff = _coefficient(op, s)
        c1, c2, t = classes1[k & 3], classes2[l & 3], allowed[g & 3]
        if not (coeff and c1 and c2):
            continue
        for i in (0, 1):
            for j in (0, 1):
                if c1 >> i & 1 and c2 >> j & 1 and not t >> (i ^ j) & 1:
                    if best is None or (a, i, b, j) < best[:4]:
                        best = (a, i, b, j, coeff)
    if best is None:
        return None
    a, i, b, j, coeff = best
    return a, _UNITS[i], b, _UNITS[j], coeff


def _leak_fail(name: str, cases: int, sig: Signature, op: OpKind,
               p1: SubspacePattern, p2: SubspacePattern, leak: tuple,
               component: str, notes: str = "") -> CheckReport:
    """FAIL on a ``_census_leak`` result, counted after ``cases`` earlier
    cases at the pair's position among the real basis pairs of P1 x P2."""
    a, unit_a, b, unit_b, coeff = leak
    basis1, basis2 = _real_basis(sig, p1), _real_basis(sig, p2)
    position = basis1.index((a, unit_a)) * len(basis2) + basis2.index((b, unit_b)) + 1
    return _fail(name, cases + position, op.value,
                 Multivector.basis_blade(sig, a, unit_a),
                 Multivector.basis_blade(sig, b, unit_b),
                 component, float(coeff), notes)


def _pair_count(sig: Signature, p1: SubspacePattern, p2: SubspacePattern) -> int:
    """Ordered real basis pairs of P1 x P2, as a census pass decides them:
    the product of the subspaces' real dimensions, each the sum over grades
    of C(n, g) times the parts the class of type g mod 4 grants."""
    d1, d2 = (sum(math.comb(sig.n, g) * bin(p[g & 3]).count("1")
                  for g in range(sig.n + 1)) for p in (p1, p2))
    return d1 * d2


# ----------------------------------------------------------------------
# membership predicates

def _wc_defect(u: Multivector) -> float:
    """How far u is from the Lie algebra: the inf-norm of conj(u) + u."""
    return (u.conjugate() + u).inf_norm()


def _unitary_defect(u: Multivector) -> float:
    """``(conj(u) u - 1).inf_norm()`` read off the terms of the product
    conj(u) u, with 1 taken from its scalar slot."""
    prod = u.conjugate().geometric_product(u).terms
    s = prod.get(0, 0j) - 1.0
    return max(abs(s.real) + abs(s.imag),
               _inf_norm(c for m, c in prod.items() if m))


def is_pseudo_unitary(u: Multivector, tol: float = 1e-12) -> bool:
    """Whether conj(U) * U is the identity within ``tol`` (inf-norm)."""
    return _unitary_defect(u) <= _check_tol(tol)


def is_in_wc(u: Multivector, tol: float = 1e-12) -> bool:
    """Lie algebra membership: conj(u) = -u within ``tol`` (inf-norm)."""
    return _wc_defect(u) <= _check_tol(tol)


# Equivalent description of the same Lie algebra: imaginary coefficients on
# types 0 and 1, real coefficients on types 2 and 3.
WC_PATTERN = SubspacePattern.from_parts(real="23", imag="01")
_EVERYTHING = SubspacePattern.from_parts(real="0123", imag="0123")
# Real basis: the blades in ascending order, so blade pair (a, b) is case a * 2^n + b + 1
_REAL = SubspacePattern.from_parts(real="0123")


# ----------------------------------------------------------------------
# checks

def check_quaternion_axioms(
    op: OpKind,
    cfg: CheckConfig,
    rule: Callable[[OpKind, int, int], int] = main_compose,
) -> CheckReport:
    """Main-type composition: op(U, V) lands in the single type given by
    ``rule`` for every pair of main types.

    Every cell of the blade-pair census is read, which settles the claim
    for whole type subspaces because both operations are bilinear.
    ``rule`` exists so the test suite can corrupt the table and watch the
    check fail.
    """
    if op is OpKind.GEOMETRIC:
        raise ValueError("axioms cover the commutator and anticommutator")
    name = f"axioms:{op.value}"
    sig = cfg.sig
    for a, b, k, l, g, s in _census(sig):
        coeff = _coefficient(op, s)
        target = rule(op, k & 3, l & 3)
        if coeff and g & 3 != target:
            return _leak_fail(name, 0, sig, op, _REAL, _REAL, (a, 1, b, 1, coeff),
                              f"type {g & 3} (expected {target})")
    return CheckReport(name, CheckStatus.PASS, sig.blade_count ** 2, None,
                       "all basis-blade pairs checked exactly; bilinearity "
                       "extends the result to the full type subspaces")


def _grade_residue(op: OpKind, k: int, l: int) -> int:
    # Result grades of op on ranks k, l are congruent to this value mod 4.
    hi, lo = (k, l) if k >= l else (l, k)
    even_odd = hi % 2 == 0 and lo % 2 == 1
    if op is OpKind.COMMUTATOR:
        s = hi - lo if even_odd else hi - lo + 2
    else:
        s = hi - lo + 2 if even_odd else hi - lo
    return s & 3


_BRACKETS = (OpKind.COMMUTATOR, OpKind.ANTICOMMUTATOR)


def check_grade_pattern(cfg: CheckConfig) -> CheckReport:
    """Rank-level refinement: op on ranks (k, l) only reaches grades in one
    residue class mod 4, k-l or k-l+2 by the operation and the ordered
    ranks' parities.  That is ``main_compose`` on k, l mod 4, so this decides
    the predicate of ``axioms:*`` by a second derivation.  Reads every cell
    of the blade-pair census."""
    name = "grades"
    sig = cfg.sig
    for a, b, k, l, g, s in _census(sig):
        for op in _BRACKETS:
            coeff = _coefficient(op, s)
            want = _grade_residue(op, k, l)
            if coeff and g & 3 != want:
                return _leak_fail(name, 0, sig, op, _REAL, _REAL, (a, 1, b, 1, coeff),
                                  f"grade {g} (want residue {want})")
    return CheckReport(name, CheckStatus.PASS, sig.blade_count ** 2, None,
                       "all basis-blade pairs, both operations, exact")


def check_type_table(op: OpKind, cfg: CheckConfig) -> CheckReport:
    """Soundness of the full 15 x 15 composition table: ``op`` on elements of
    each type pair stays inside the table cell.  Tightness (how much of each
    cell is reached) is only reported, as cell coverage.

    Reads the blade-pair census.  By bilinearity a composite cell reaches
    exactly the union of what its main-type cells reach, so soundness and
    coverage are both exact."""
    name = f"tables:{op.value}"
    sig = cfg.sig
    cells = emit_table(op)
    reached = [[0] * len(TYPE_ORDER) for _ in TYPE_ORDER]
    # Indices of the types that hold main type k; k itself comes first.
    holding = [[i for i, t in enumerate(TYPE_ORDER) if k in t] for k in range(4)]
    for a, b, k, l, g, s in _census(sig):
        coeff = _coefficient(op, s)
        if not coeff:
            continue
        got = QType.of(g & 3)
        for i in holding[k & 3]:
            for j in holding[l & 3]:
                if not got <= cells[i][j]:
                    return _leak_fail(name, 0, sig, op, _REAL, _REAL, (a, 1, b, 1, coeff),
                                      f"type {got} outside cell {cells[i][j]}")
                reached[i][j] |= got.mask

    possible = sum(len(cell.members) for row in cells for cell in row)
    hit = sum(len(QType(r & cell.mask).members)
              for row, cell_row in zip(reached, cells)
              for r, cell in zip(row, cell_row))
    coverage = 100.0 * hit / possible if possible else 100.0
    return CheckReport(name, CheckStatus.PASS, sig.blade_count ** 2, None,
                       "soundness and coverage exact from all basis-blade pairs; "
                       f"cell coverage {coverage:.1f}% (reported, not asserted)")


def check_pattern_closure(
    op: OpKind,
    pattern: SubspacePattern,
    cfg: CheckConfig,
    field: Field = Field.COMPLEX,
    name: Optional[str] = None,
) -> CheckReport:
    """One subspace closure claim, checked abstractly (pattern composition)
    and concretely.  Callable with any pattern, so deliberately non-closed
    subspaces serve as negative controls.

    The blade-pair census decides every real basis pair (unit * blade,
    unit 1 or i as the pattern grants) exactly, and the report counts the
    abstract case plus those pairs, or plus the failing pair's position.
    An abstract leak without a concrete witness FAILs with one case.
    Raises FieldMismatch when the field is real and the pattern grants an
    imaginary part."""
    label = name or f"closure:{op.value}:{field.value}:{pattern}"
    composed = pattern_compose(op, pattern, pattern)
    contained = pattern.contains(composed)
    notes = "" if contained else (
        f"abstract composition leaks: {pattern} composes to {composed}")
    if field is Field.REAL and any(c & CoeffClass.IMAGINARY for c in pattern.classes):
        raise FieldMismatch(f"pattern {pattern} has imaginary parts in a real field")
    leak = _census_leak(cfg.sig, op, pattern, pattern, pattern)
    if leak:
        return _leak_fail(label, 1, cfg.sig, op, pattern, pattern, leak,
                          f"outside pattern {pattern}", notes)
    if not contained:
        return CheckReport(label, CheckStatus.FAIL, 1, None, notes)
    pairs = _pair_count(cfg.sig, pattern, pattern)
    return CheckReport(
        label, CheckStatus.PASS, 1 + pairs, None,
        f"abstract composition contained; census decides all {pairs} "
        "real basis pairs",
    )


# Closed-subspace catalogs: (real digits, imaginary digits) per pattern.
PRODUCT_CLOSED_COMPLEX = (("02", ""), ("02", "02"), ("02", "13"), ("0123", ""))
COMM_CLOSED_COMPLEX = (
    ("2", ""), ("02", ""), ("12", ""), ("23", ""), ("0123", ""),
    ("02", "02"), ("12", "12"), ("23", "23"),
    ("2", "0"), ("2", "1"), ("2", "2"), ("2", "3"),
    ("02", "13"), ("12", "03"), ("23", "01"),
)
ANTICOMM_CLOSED_COMPLEX = (
    ("0", ""), ("01", ""), ("02", ""), ("03", ""), ("0123", ""),
    ("01", "01"), ("02", "02"), ("03", "03"),
    ("0", "0"), ("0", "1"), ("0", "2"), ("0", "3"),
    ("01", "23"), ("02", "13"), ("03", "12"),
)


def closure_catalog() -> list[tuple[OpKind, Field, SubspacePattern]]:
    """Every closed subspace claim, in a fixed order: per operation, the
    complex catalog's real patterns but the whole algebra, over R, then the
    complex catalog."""
    entries: list[tuple[OpKind, Field, SubspacePattern]] = []
    for op, complex_ in (
        (OpKind.GEOMETRIC, PRODUCT_CLOSED_COMPLEX),
        (OpKind.COMMUTATOR, COMM_CLOSED_COMPLEX),
        (OpKind.ANTICOMMUTATOR, ANTICOMM_CLOSED_COMPLEX),
    ):
        entries += [(op, Field.REAL, SubspacePattern.from_parts(real=re))
                    for re, im in complex_ if not im and re != "0123"]
        entries += [(op, Field.COMPLEX, SubspacePattern.from_parts(re, im))
                    for re, im in complex_]
    return entries


def check_subalgebra_theorems(cfg: CheckConfig) -> list[CheckReport]:
    """Closure of every cataloged subspace: the real even-type algebra under
    the product, the commutator-closed and anticommutator-closed families
    over both coefficient fields.  The catalog is every pattern that
    ``is_closed`` accepts except the empty one and the whole algebra."""
    return [
        check_pattern_closure(op, pattern, cfg, field=field)
        for op, field, pattern in closure_catalog()
    ]


# Commutator relations among the wC constituents: ([P1, P2], target).
_WC_I0 = SubspacePattern.from_parts(imag="0")
_WC_I1 = SubspacePattern.from_parts(imag="1")
_WC_R2 = SubspacePattern.from_parts(real="2")
_WC_R3 = SubspacePattern.from_parts(real="3")
WC_RELATIONS = (
    (_WC_I0, _WC_I0, _WC_R2),
    (_WC_I1, _WC_I1, _WC_R2),
    (_WC_R2, _WC_R2, _WC_R2),
    (_WC_R3, _WC_R3, _WC_R2),
    (_WC_I0, _WC_R2, _WC_I0),
    (_WC_I1, _WC_R2, _WC_I1),
    (_WC_R3, _WC_R2, _WC_R3),
    (_WC_I0, _WC_I1, _WC_R3),
    (_WC_I0, _WC_R3, _WC_I1),
    (_WC_I1, _WC_R3, _WC_I0),
)


def check_theorem5(cfg: CheckConfig) -> CheckReport:
    """Commutator relations among the four constituents of the Lie algebra
    (imaginary types 0 and 1, real types 2 and 3), each checked abstractly
    and then on every real basis pair through the census."""
    name = "theorem5"
    cases = 0
    for p1, p2, target in WC_RELATIONS:
        composed = pattern_compose(OpKind.COMMUTATOR, p1, p2)
        cases += 1
        if not target.contains(composed):
            return CheckReport(
                name, CheckStatus.FAIL, cases, None,
                f"abstract relation [{p1}, {p2}] leaks outside {target}",
            )
        leak = _census_leak(cfg.sig, OpKind.COMMUTATOR, p1, p2, target)
        if leak:
            return _leak_fail(name, cases, cfg.sig, OpKind.COMMUTATOR, p1, p2,
                              leak, f"[{p1}, {p2}] outside {target}")
        cases += _pair_count(cfg.sig, p1, p2)
    return CheckReport(name, CheckStatus.PASS, cases, None,
                       "10 relations, abstract plus every real basis pair "
                       "through the census")


# Commutator-closed subspaces of the Lie algebra, with the ambient pattern
# their exponentials stay inside.
LIE_SUBALGEBRA_ROWS = (
    (SubspacePattern.from_parts(real="2"),
     SubspacePattern.from_parts(real="02")),
    (SubspacePattern.from_parts(real="2", imag="0"),
     SubspacePattern.from_parts(real="02", imag="02")),
    (SubspacePattern.from_parts(real="2", imag="1"),
     SubspacePattern.from_parts(real="02", imag="13")),
    (SubspacePattern.from_parts(real="23"),
     SubspacePattern.from_parts(real="0123")),
)


def _theorem6_row(cfg: CheckConfig, lie: SubspacePattern) -> CheckReport:
    """Closure from the lattice (``is_closed``) and from the census;
    membership from the lattice (lie inside WC_PATTERN) and from conjugating
    every real basis element unit * blade the pattern grants (conjugation
    is real-linear, so conj(u) = -u on a basis holds on its span)."""
    name, sig = f"theorem6:{lie}", cfg.sig
    if not is_closed(OpKind.COMMUTATOR, lie):
        return CheckReport(name, CheckStatus.FAIL, 1, None,
                           "abstract commutator closure fails")
    inside = WC_PATTERN.contains(lie)
    notes = "" if inside else (
        f"abstract membership fails: {lie} is not inside {WC_PATTERN}")
    basis = _real_basis(sig, lie)
    for i, (mask, unit) in enumerate(basis, 2):
        u = Multivector.basis_blade(sig, mask, unit)
        if anti := _wc_defect(u):
            return _fail(name, i, "conj", u, None, "conj(u) + u", anti, notes)
    if not inside:
        return CheckReport(name, CheckStatus.FAIL, 1, None, notes)
    leak = _census_leak(sig, OpKind.COMMUTATOR, lie, lie, lie)
    if leak:
        return _leak_fail(name, 1, sig, OpKind.COMMUTATOR, lie, lie, leak,
                          f"outside pattern {lie}")
    pairs = _pair_count(sig, lie, lie)
    return CheckReport(
        name, CheckStatus.PASS, 1 + pairs, None,
        f"closure exact on all {pairs} real basis pairs; membership exact on "
        f"{len(basis)} real basis elements",
    )


def check_theorem6(cfg: CheckConfig) -> list[CheckReport]:
    """The four Lie subalgebras: commutator-closed and inside the Lie
    algebra (conj(u) = -u), decided exactly: closure on every real basis
    pair through the census, membership on every real basis element of the
    subalgebra."""
    return [_theorem6_row(cfg, lie) for lie, _ in LIE_SUBALGEBRA_ROWS]


def _theorem7_exact(cfg: CheckConfig, name: str, lie: SubspacePattern,
                    ambient: SubspacePattern) -> CheckReport:
    """Exact half of a theorem 7 row; a PASS counts the cases it decided.

    Every partial sum of the series exp(u) stays in the ambient when the
    ambient holds 1, is product-closed and contains the Lie pattern.  And
    conj(exp u) = exp(-u), the inverse of exp u, when u lies in wC and
    conjugation reverses products: conj(ab) = conj(b) conj(a), which on
    blades reads s_ab s_ba = r(|a|) r(|b|) r(|a ^ b|) with r(g) the sign
    conjugation gives a grade-g blade."""
    for holds, why in (
        (ambient.contains(lie), f"{lie} is not inside {ambient}"),
        (ambient[0] & CoeffClass.REAL, f"{ambient} holds no real scalar"),
        (WC_PATTERN.contains(lie), f"{lie} is not inside {WC_PATTERN}"),
    ):
        if not holds:
            return CheckReport(name, CheckStatus.FAIL, 1, None, f"exact half: {why}")
    closure = check_pattern_closure(OpKind.GEOMETRIC, ambient, cfg, name=name)
    if closure.status is CheckStatus.FAIL:
        return closure
    sig = cfg.sig
    r = [_blade(sig, (1 << g) - 1).conjugate().coefficient((1 << g) - 1).real
         for g in range(sig.n + 1)]
    rows = _census(sig)
    for i, (a, b, k, l, g, s) in enumerate(rows, 1):
        if s != r[k] * r[l] * r[g]:
            return _fail(name, closure.cases_run + i, "product", _blade(sig, a),
                         _blade(sig, b), "conj(ab) - conj(b) conj(a)", 2.0)
    return CheckReport(name, CheckStatus.PASS, closure.cases_run + len(rows))


# Real basis elements each theorem 7 witness sample draws at most, and the
# bound on its exp image's pseudo-unitary defect.
_WITNESS_K = 8
_GROUP_TOL = 1e-9


def _theorem7_row(cfg: CheckConfig, lie: SubspacePattern,
                  ambient: SubspacePattern) -> CheckReport:
    name = f"theorem7:{lie}->{ambient}"
    report = _theorem7_exact(cfg, name, lie, ambient)
    if report.status is CheckStatus.FAIL:
        return report
    cases = report.cases_run
    rng = SplitMix64(derive_subseed(cfg.seed, name))
    for i in range(cases + 1, cases + cfg.samples + 1):
        # at most _WITNESS_K terms, so exp(u) and conj(U) U stay in the XOR
        # span of their masks: at most 2^_WITNESS_K blades at any n
        u = sample_pattern_mv(cfg.sig, lie, rng, k=_WITNESS_K)
        # The l1 norm is submultiplicative (every blade product has
        # coefficient +-1), so at l1 <= 1 the series cannot build large
        # terms that cancel; the inf-norm bounds nothing of the kind.
        l1 = sum(abs(c.real) + abs(c.imag) for c in u.terms.values())
        if l1 > 1.0:
            u = u.scale(1.0 / l1)
        if anti := _wc_defect(u):
            return _fail(name, i, "conj", u, None, "conj(u) + u", anti)
        big_u = u.exp()
        defect = _unitary_defect(big_u)
        if defect > _GROUP_TOL:
            return _fail(name, i, "exp", u, None, "conj(U) U - 1", defect)
        if leak := ambient.leakage(big_u):
            return _fail(name, i, "exp", u, None, f"outside pattern {ambient}", leak)
    return CheckReport(
        name, CheckStatus.PASS, cases + cfg.samples, None,
        f"exact: {lie} inside {ambient} and wC, {ambient} holds 1 and is "
        "product-closed, conj reverses every census cell; exp image inside "
        f"{ambient} exactly and pseudo-unitary to {_GROUP_TOL:g}",
    )


def check_theorem7(cfg: CheckConfig) -> list[CheckReport]:
    """Exponentials of each Lie subalgebra: inside the row's ambient pattern
    exactly and pseudo-unitary to 1e-9, for samples with l1 norm (the sum of
    |re| + |im| over terms) at most 1.  Each row first proves both claims
    exactly (``_theorem7_exact``); the samples stay as a numeric witness,
    the only sampling in the verifier.

    On a correct kernel a sample's conj(u) + u and its exp image's leakage
    are exactly 0, so any nonzero value fails the row.  The exact half
    proves the ambient product-closed, so in a product (x + iy)(z + iw) =
    (xz - yw) + i(xw + yz) of coefficients confined to its classes, each
    part it forbids sums products with an exact +-0 factor: +-0 (the series
    cannot overflow).  At l1 <= 1 ``exp`` squares nothing; each series term
    is the previous one times u, summed per slot and scaled by 1/m, which
    keep +-0, so every part the ambient forbids is a signed zero.  Negation
    and conjugation flip signs exactly: conj(u) + u has parts x - x or x + x.

    Only the exponential image is probed; this does not decide whether the
    exponential map covers the corresponding group component.
    """
    return [_theorem7_row(cfg, lie, ambient) for lie, ambient in LIE_SUBALGEBRA_ROWS]


def check_theorem6_7(cfg: CheckConfig) -> list[CheckReport]:
    return check_theorem6(cfg) + check_theorem7(cfg)


def check_wc_membership(cfg: CheckConfig) -> CheckReport:
    """The two Lie algebra criteria, conj(u) = -u and ``WC_PATTERN``, hold
    on the same subspace.  Each of the 2^(n+1) real basis elements e =
    unit * blade must conjugate to +e or -e, get one verdict from both
    criteria, and be accepted when the pattern grants it; conjugation is
    real-linear, so that decides the equality exactly.  Samples nothing."""
    name, sig = "wc", cfg.sig
    granted = set(_real_basis(sig, WC_PATTERN))
    basis = _real_basis(sig, _EVERYTHING)
    for case, (mask, unit) in enumerate(basis, 1):
        e = Multivector.basis_blade(sig, mask, unit)
        conj = e.conjugate()
        by_conj, by_pattern = is_in_wc(e, 0.0), WC_PATTERN.matches(e)
        if conj != e and conj != -e:
            component = "conj(u) is neither u nor -u"
        elif by_conj != by_pattern:
            component = f"conjugation says {by_conj}, pattern says {by_pattern}"
        elif (mask, unit) in granted and not by_conj:
            component = "pattern element rejected"
        else:
            continue
        return _fail(name, case, "conj", e, None, component, _wc_defect(e))
    return CheckReport(name, CheckStatus.PASS, len(basis), None,
                       "conjugation and pattern agree on every real basis element")


def check_rank_coincidence(cfg: CheckConfig) -> CheckReport:
    """Below four generators every type projection equals the grade
    projection of the same index; skipped at n >= 4 where types start
    collecting several grades.  Both projections are term filters, hence
    linear, so agreement on every basis blade decides the claim."""
    name = "rank"
    sig = cfg.sig
    if sig.n >= 4:
        return CheckReport(
            name, CheckStatus.SKIPPED, 0, None,
            f"types and ranks coincide only below 4 generators (n={sig.n})",
        )
    for case, mask in enumerate(sig.blades(), 1):
        u = Multivector.basis_blade(sig, mask, 1, Field.COMPLEX)
        got = detect_qtype(u, 0.0)
        if got != QType.of(grade(mask)):
            return _fail(name, case, "detect", _blade(sig, mask), None,
                         f"type {got}", 1.0)
        for k in range(sig.n + 1):
            diff = u.qtype_project(k) - u.grade_project(k)
            if diff:
                return _fail(name, case, "project", _blade(sig, mask), None,
                             f"type vs grade projection at {k}", diff.inf_norm())
    return CheckReport(
        name, CheckStatus.PASS, sig.blade_count, None,
        "every basis blade: type projections equal grade projections, "
        "which are linear",
    )


# ----------------------------------------------------------------------
# suite plumbing

_LEAVES: dict[str, Callable[[CheckConfig], list[CheckReport]]] = {
    "axioms:anticomm": lambda cfg: [check_quaternion_axioms(OpKind.ANTICOMMUTATOR, cfg)],
    "axioms:comm": lambda cfg: [check_quaternion_axioms(OpKind.COMMUTATOR, cfg)],
    "grades": lambda cfg: [check_grade_pattern(cfg)],
    "tables:product": lambda cfg: [check_type_table(OpKind.GEOMETRIC, cfg)],
    "tables:comm": lambda cfg: [check_type_table(OpKind.COMMUTATOR, cfg)],
    "tables:anticomm": lambda cfg: [check_type_table(OpKind.ANTICOMMUTATOR, cfg)],
    "closures": check_subalgebra_theorems,
    "theorem5": lambda cfg: [check_theorem5(cfg)],
    "theorem6": check_theorem6,
    "theorem7": check_theorem7,
    "wc": lambda cfg: [check_wc_membership(cfg)],
    "rank": lambda cfg: [check_rank_coincidence(cfg)],
}

_GROUPS: dict[str, tuple[str, ...]] = {
    "axioms": ("axioms:anticomm", "axioms:comm"),
    "tables": ("tables:product", "tables:comm", "tables:anticomm"),
    "theorems": ("closures", "theorem5", "theorem6", "theorem7", "wc"),
    "all": tuple(_LEAVES),
}

SUITE_NAMES = tuple(_GROUPS) + tuple(_LEAVES)


def resolve_suite(names) -> list[str]:
    """Expand group identifiers to leaf check names, deduplicated in order.
    TypeError for a bare string, whose characters would be read as names."""
    if isinstance(names, str):
        raise TypeError(f"pass a list of check names, not the string {names!r}")
    out: list[str] = []
    for ident in names:
        if ident in _GROUPS:
            leaves = _GROUPS[ident]
        elif ident in _LEAVES:
            leaves = (ident,)
        else:
            raise UnknownCheck(
                f"unknown check {ident!r}; known: {', '.join(sorted(SUITE_NAMES))}"
            )
        for leaf in leaves:
            if leaf not in out:
                out.append(leaf)
    return out


def run_suite(names, cfg: CheckConfig) -> list[CheckReport]:
    """Run the named checks (leaf names or groups) and collect their reports.

    theorem7 seeds each row's splitmix64 stream from (cfg.seed, the row's
    name), so the output is independent of suite composition and
    repeatable."""
    reports: list[CheckReport] = []
    for leaf in resolve_suite(names):
        reports.extend(_LEAVES[leaf](cfg))
    return reports
