"""Basis blades of Cl(p,q) as bitmasks, with exact sign arithmetic.

A blade is an ``int`` whose bit ``i-1`` says whether generator ``e^i`` is
present (indices are 1-based).  The geometric product of two basis blades is
always ``sign * (a ^ b)`` with ``sign`` in ``{+1, -1}``, so all structure
constants are computed exactly in integer arithmetic.

Each signature builds one split sign table of at most 4**6 entries
(``sign_table``); the product's pair loop, ``exp`` and every
``canonical_sign`` call read it.  The table holds sign bits (0 for +1, 1
for -1), so the sign of a product of signs is the XOR of their bits.
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
    """Ascending 1-based generator indices of a blade mask."""
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


def reorder_sign(a: int, b: int) -> int:
    """Sign from sorting the concatenation of blades ``a`` and ``b``.

    Equals (-1)**T where T counts pairs (j in a, i in b) with j > i, i.e.
    the adjacent transpositions needed to interleave the two sorted
    generator sequences.
    """
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if swaps & 1 else 1


def metric_sign(a: int, b: int, sig: Signature) -> int:
    """Product of generator squares over the generators common to a and b."""
    neg = (a & b) >> sig.p  # bits of the shared part that square to -1
    return -1 if neg.bit_count() & 1 else 1


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


@functools.lru_cache(maxsize=None)
def sign_table(sig: Signature):
    """Split table of sign bits ``(h, (low0, low1), high)`` with
    h = (n+1)//2; a bit is 0 for +1 and 1 for -1.  For aL = a & (2**h - 1)
    and aH = a >> h, the sign of ``a * b`` is -1 exactly when
    ``low[|aH| & 1][aL][bL] ^ high[aH][bH]`` is 1.  The reorder count splits
    as T(a,b) = T(aL,bL) + T(aH,bH) + |aH|*|bL|; ``low1`` XORs the parity
    of |bL| into ``low0`` to fold in the cross term, and the metric sign
    splits over the shared generators of each half."""
    h = (sig.n + 1) // 2
    lows, highs = range(1 << h), range(1 << (sig.n - h))
    low0 = [[int(reorder_sign(a, b) != metric_sign(a, b, sig)) for b in lows]
            for a in lows]
    low1 = [[s ^ (b.bit_count() & 1) for b, s in enumerate(row)]
            for row in low0]
    high = [[int(reorder_sign(a, b) != metric_sign(a << h, b << h, sig))
             for b in highs] for a in highs]
    return h, (low0, low1), high
