"""Basis blades of Cl(p,q) as bitmasks, with exact sign arithmetic.

A blade is an ``int`` whose bit ``i-1`` says whether generator ``e^i`` is
present (indices are 1-based).  The geometric product of two basis blades is
always ``sign * (a ^ b)`` with ``sign`` in ``{+1, -1}``, so all structure
constants are computed exactly in integer arithmetic.

Each signature builds one split sign table of at most 4**6 entries
(``sign_table``) from one GF(2) bilinear form (``_form``); the product's
pair loop, ``exp``, every ``canonical_sign`` call and the verifier's
census (``verify._census``, which reads every entry; the rest of the
verifier reaches the table only through products and ``exp``) read it.
The table holds sign bits (0 for +1, 1 for -1), so the sign of a product
of signs is the XOR of their bits.
"""

from __future__ import annotations

import functools

from ._frozen import Frozen

MAX_GENERATORS = 12


class Signature(Frozen):
    """Diagonal metric with ``p`` generators squaring to +1, then ``q`` to -1.

    Only nondegenerate signatures are supported, with 1 <= p+q <= 12.
    """

    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if not (type(p) is int and type(q) is int):
            raise TypeError("signature components must be integers")
        if p < 0 or q < 0:
            raise ValueError("signature components must be nonnegative")
        if not 1 <= p + q <= MAX_GENERATORS:
            raise ValueError(
                f"need 1 <= p+q <= {MAX_GENERATORS}, got p={p}, q={q}"
            )
        self._store(p, q)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def blade_count(self) -> int:
        return 1 << self.n

    def metric(self, i: int) -> int:
        """Square of generator ``e^i`` (1-based index); ValueError unless
        ``i`` is an int (not a bool or float) in 1..n."""
        if not (type(i) is int and 1 <= i <= self.n):
            raise ValueError(f"generator index {i!r} out of range 1..{self.n}")
        return 1 if i <= self.p else -1

    def blades(self) -> range:
        """All basis blade masks, ascending."""
        return range(self.blade_count)

    def check_blade(self, mask: int) -> None:
        """Refuse a mask that is not an int in 0..2**n - 1 with ValueError;
        a bool is refused, not read as mask 0 or 1."""
        if not (type(mask) is int and 0 <= mask < self.blade_count):
            raise ValueError(f"blade mask {mask!r} invalid for n={self.n}")

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def grade(mask: int) -> int:
    """Number of generators in the blade (popcount)."""
    return mask.bit_count()


def blade_indices(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of a blade mask; ValueError
    unless the mask is a nonnegative int (not a bool)."""
    if not (type(mask) is int and mask >= 0):
        raise ValueError(f"blade mask {mask!r} invalid")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_from_indices(indices, n: int) -> int:
    """Build a blade mask from strictly increasing 1-based indices."""
    mask = 0
    prev = 0
    for i in indices:
        if not (type(i) is int and 1 <= i <= n):
            raise ValueError(f"generator index {i!r} out of range 1..{n}")
        if i <= prev:
            raise ValueError("generator indices must be strictly increasing")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def canonical_sign(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Geometric product of basis blades: returns (sign, result mask), the
    sign -1 when the XOR of the two sign-table bits is 1 and +1 otherwise."""
    sig.check_blade(a)
    sig.check_blade(b)
    h, low, high = sign_table(sig)
    lo = (1 << h) - 1
    ah = a >> h
    bit = low[ah.bit_count() & 1][a & lo][b & lo] ^ high[ah][b >> h]
    return -1 if bit else 1, a ^ b


def _form(b: int, sig: Signature) -> int:
    """L(b) of the sign form: the sign bit of ``a * b`` is the parity of
    ``a & L(b)``, with L(b) = P(b) ^ (b & N).  Bit j of P(b) is the parity
    of b's generators below j (the swaps that carry a's e^(j+1) past b),
    and N masks the q generators that square to -1 (the contractions)."""
    x = b << 1
    for s in (1, 2, 4, 8):  # prefix XOR over the n <= 12 < 16 bits
        x ^= x << s
    return x ^ (b >> sig.p << sig.p)


@functools.lru_cache(maxsize=None)
def sign_table(sig: Signature):
    """Split table of sign bits ``(h, (low0, low1), high)`` with
    h = (n+1)//2; a bit is 0 for +1 and 1 for -1.  For aL = a & (2**h - 1)
    and aH = a >> h, the sign of ``a * b`` is -1 exactly when
    ``low[|aH| & 1][aL][bL] ^ high[aH][bH]`` is 1.

    Proof: ``_form`` is GF(2)-linear and L(bH << h) has no low bit, so aL
    meets L(bL) alone (``low0``); every high bit of L(bL) is |bL|'s parity,
    which aH meets |aH| times (the ``low1`` fold); aH << h against
    L(bH << h) is ``high``.  The metric puts a & b & N into both a & L(b)
    and b & L(a), so s_ab * s_ba, their XOR's parity, does not depend on
    it: no check built on that product can see the metric."""
    h = (sig.n + 1) // 2
    lows, highs = range(1 << h), range(1 << (sig.n - h))
    cols = [_form(b, sig) for b in lows]
    low0 = [[(a & c).bit_count() & 1 for c in cols] for a in lows]
    low1 = [[s ^ (b.bit_count() & 1) for b, s in enumerate(row)]
            for row in low0]
    cols = [_form(b << h, sig) for b in highs]
    high = [[(a << h & c).bit_count() & 1 for c in cols] for a in highs]
    return h, (low0, low1), high
