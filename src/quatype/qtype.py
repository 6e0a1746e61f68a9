"""Mod-4 (quaternion-type) grading of Clifford algebra elements.

A main type k in {0,1,2,3} collects the grades congruent to k mod 4.  General
types are subsets of the four main types; on main types the commutator and
anticommutator compose like quaternion units, which reduces to XOR arithmetic:

    anticommutator:  (a, b) -> a ^ b          (unit element 0)
    commutator:      (a, b) -> a ^ b ^ 2      (unit element 2)

Subspace patterns refine types with a per-type coefficient class (zero, real,
imaginary, complex), enough to express statements like "real even part plus
imaginary odd part is closed under the commutator".
"""

from __future__ import annotations

from enum import Enum, IntFlag

from ._frozen import Frozen
from .blades import grade
from .multivector import Multivector, _check_tol


class OpKind(Enum):
    COMMUTATOR = "comm"
    ANTICOMMUTATOR = "anticomm"
    GEOMETRIC = "product"


class CoeffClass(IntFlag):
    """Which coordinate parts a coefficient may occupy.

    Bit 0 grants a real part, bit 1 an imaginary part; the lattice order is
    bitmask inclusion (ZERO below everything, COMPLEX on top).
    """

    ZERO = 0
    REAL = 1
    IMAGINARY = 2
    COMPLEX = 3


# The lattice arithmetic below runs on plain ints: each operator on a
# CoeffClass member goes through the enum machinery, about ten times slower.

def _mul(a: int, b: int) -> int:
    """Class of a product of coefficients drawn from classes a and b."""
    ar, ai = a & 1, (a >> 1) & 1
    br, bi = b & 1, (b >> 1) & 1
    re = (ar & br) | (ai & bi)
    im = (ar & bi) | (ai & br)
    return re | (im << 1)


def coeff_le(a: CoeffClass, b: CoeffClass) -> bool:
    return (int(a) & ~int(b)) == 0


# Ascending main types of each 4-bit type mask, built once: the type tables
# read QType.members thousands of times per verdict.
_MEMBERS = tuple(tuple(k for k in range(4) if mask >> k & 1) for mask in range(16))


class QType(Frozen):
    """Subset of the four main types, stored as a 4-bit mask."""

    mask: int

    def __init__(self, mask: int) -> None:
        if not (type(mask) is int and 0 <= mask <= 0b1111):
            raise ValueError(f"type mask {mask!r} out of range")
        self._store(mask)

    @classmethod
    def of(cls, *members: int) -> "QType":
        m = 0
        for k in members:
            if type(k) is not int or not 0 <= k <= 3:
                raise ValueError(f"main type {k!r} must be 0..3")
            m |= 1 << k
        return cls(m)

    @classmethod
    def from_string(cls, text: str) -> "QType":
        """Parse digit strings like "02"; the empty string is the empty type.
        Any character other than 0, 1, 2 and 3 raises ValueError."""
        for ch in text:
            if ch not in "0123":
                raise ValueError(f"type digit {ch!r} must be 0..3")
        return cls.of(*map(int, text))

    @property
    def members(self) -> tuple[int, ...]:
        return _MEMBERS[self.mask]

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, k: int) -> bool:
        return type(k) is int and 0 <= k <= 3 and bool(self.mask >> k & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __le__(self, other: "QType") -> bool:
        return (self.mask & ~other.mask) == 0

    def __or__(self, other: "QType") -> "QType":
        return QType(self.mask | other.mask)

    def __and__(self, other: "QType") -> "QType":
        return QType(self.mask & other.mask)

    def __str__(self) -> str:
        return "".join(str(k) for k in self.members)

    def __repr__(self) -> str:
        return f"QType({str(self)!r})"


EMPTY_TYPE = QType(0)
FULL_TYPE = QType(0b1111)

# Fixed presentation order: the four main types, then pairs, triples, and the
# full type, each group in ascending digit order.
TYPE_ORDER: tuple[QType, ...] = tuple(sorted(
    (QType(mask) for mask in range(1, 16)),
    key=lambda t: (len(t.members), t.members),
))


def main_compose(op: OpKind, a: int, b: int) -> int:
    """Compose two main types under the commutator or anticommutator.

    Anticommutator: a ^ b.  Commutator: a ^ b ^ 2.  Both are symmetric and
    reproduce the quaternion-unit table with unit 0 resp. unit 2.
    """
    if not (type(a) is int and type(b) is int and 0 <= a <= 3 and 0 <= b <= 3):
        raise ValueError(f"main types must be 0..3, got {a!r}, {b!r}")
    if op is OpKind.ANTICOMMUTATOR:
        return a ^ b
    if op is OpKind.COMMUTATOR:
        return a ^ b ^ 2
    raise ValueError("main_compose is defined for commutator/anticommutator only")


def qtype_compose(op: OpKind, t1: QType, t2: QType) -> QType:
    """Smallest type guaranteed to contain op(U, V) for U of type t1, V of t2.

    The empty type is absorbing.  The geometric product composes as the union
    of the commutator and anticommutator results (UV = [U,V]/2 + {U,V}/2).
    """
    if op is OpKind.GEOMETRIC:
        return (qtype_compose(OpKind.COMMUTATOR, t1, t2)
                | qtype_compose(OpKind.ANTICOMMUTATOR, t1, t2))
    mask = 0
    for a in t1.members:
        for b in t2.members:
            mask |= 1 << main_compose(op, a, b)
    return QType(mask)


class SubspacePattern(Frozen):
    """One coefficient class per main type, describing a linear subspace."""

    classes: tuple[CoeffClass, CoeffClass, CoeffClass, CoeffClass]

    def __init__(self, classes: tuple[CoeffClass, ...]) -> None:
        if len(classes) != 4:
            raise ValueError("a pattern needs exactly four classes")
        # CoeffClass(c) would keep an unknown int on the flag (4 prints as
        # empty, -1 as COMPLEX) and take 3.0 or True as an int
        if not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c <= 3
                   for c in classes):
            raise ValueError(f"coefficient classes must be ints 0..3, got {classes}")
        self._store(tuple(CoeffClass(c) for c in classes))

    @classmethod
    def from_parts(cls, real: str = "", imag: str = "") -> "SubspacePattern":
        """Build a pattern from digit strings: types granted a real part and
        types granted an imaginary part ("02", "13", ...); a digit in both
        gets a full complex coefficient."""
        classes = [CoeffClass.ZERO] * 4
        for part, digits in ((CoeffClass.REAL, real), (CoeffClass.IMAGINARY, imag)):
            for ch in digits:
                if ch not in "0123":
                    raise ValueError(f"type digit {ch!r} must be 0..3")
                classes[int(ch)] |= part
        return cls(tuple(classes))

    def __getitem__(self, kbar: int) -> CoeffClass:
        return self.classes[kbar]

    def contains(self, other: "SubspacePattern") -> bool:
        return all(map(coeff_le, other.classes, self.classes))

    def join(self, other: "SubspacePattern") -> "SubspacePattern":
        return SubspacePattern(
            tuple(int(a) | int(b) for a, b in zip(self.classes, other.classes))
        )

    def matches(self, mv: Multivector, tol: float = 0.0) -> bool:
        """True when every part the pattern forbids stays within ``tol``.

        A class without a real bit bounds the real parts of that type's
        projection; a class without an imaginary bit bounds the imaginary
        parts.  COMPLEX constrains nothing, ZERO constrains both.
        """
        return self.leakage(mv) <= _check_tol(tol)

    def leakage(self, mv: Multivector) -> float:
        """Largest forbidden-part magnitude (0.0 when mv matches exactly)."""
        re, im, _ = _type_profile(mv)
        worst = 0.0
        for k, cls in enumerate(map(int, self.classes)):
            if not cls & 1:  # no real part granted
                worst = max(worst, re[k])
            if not cls & 2:  # no imaginary part granted
                worst = max(worst, im[k])
        return worst

    def __str__(self) -> str:
        re = "".join(str(k) for k in range(4) if self.classes[k] & CoeffClass.REAL)
        im = "".join(str(k) for k in range(4) if self.classes[k] & CoeffClass.IMAGINARY)
        if re and im:
            return f"{re}+i{im}"
        if im:
            return f"i{im}"
        if re:
            return re
        return "empty"


def pattern_compose(op: OpKind, p1: SubspacePattern, p2: SubspacePattern) -> SubspacePattern:
    """Pattern guaranteed to contain op(U, V) for U matching p1, V matching p2."""
    if op is OpKind.GEOMETRIC:
        return pattern_compose(OpKind.COMMUTATOR, p1, p2).join(
            pattern_compose(OpKind.ANTICOMMUTATOR, p1, p2)
        )
    classes = [0] * 4  # a ZERO class contributes ZERO below
    for a, ca in enumerate(map(int, p1.classes)):
        for b, cb in enumerate(map(int, p2.classes)):
            classes[main_compose(op, a, b)] |= _mul(ca, cb)
    return SubspacePattern(tuple(classes))


def is_closed(op: OpKind, pattern: SubspacePattern) -> bool:
    """Whether the subspace described by ``pattern`` is closed under ``op``."""
    return pattern.contains(pattern_compose(op, pattern, pattern))


def _type_profile(mv: Multivector) -> tuple[list[float], list[float], list[float]]:
    """Per main type, in one pass: max |re|, max |im| and max(|re| + |im|)."""
    re, im, mag = [0.0] * 4, [0.0] * 4, [0.0] * 4
    for mask, c in mv.terms.items():
        k = grade(mask) & 3
        a, b = abs(c.real), abs(c.imag)
        if a > re[k]:
            re[k] = a
        if b > im[k]:
            im[k] = b
        if a + b > mag[k]:
            mag[k] = a + b
    return re, im, mag


def _threshold(mag: list[float], tol: float) -> float:
    """tol * (1 + inf_norm(mv)); a NaN or infinite tol is refused."""
    return _check_tol(tol) * (1.0 + max(mag))


def detect_qtype(mv: Multivector, tol: float = 1e-12) -> QType:
    """Main types whose projection exceeds ``tol * (1 + inf_norm(mv))``."""
    _, _, mag = _type_profile(mv)
    thresh = _threshold(mag, tol)
    return QType(sum(1 << k for k in range(4) if mag[k] > thresh))


def pattern_of(mv: Multivector, tol: float = 1e-12) -> SubspacePattern:
    """Observed coefficient class per main type, at the same relative
    threshold as detect_qtype."""
    re, im, mag = _type_profile(mv)
    thresh = _threshold(mag, tol)
    return SubspacePattern(tuple(
        CoeffClass((re[k] > thresh) | (im[k] > thresh) << 1) for k in range(4)
    ))


def emit_table(op: OpKind) -> list[list[QType]]:
    """15 x 15 composition table over the nonempty types in TYPE_ORDER."""
    return [
        [qtype_compose(op, t1, t2) for t2 in TYPE_ORDER]
        for t1 in TYPE_ORDER
    ]
