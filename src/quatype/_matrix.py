"""The product's matrix path: Cl(p,q) as complex D x D matrices.

Over C, Cl(p,q) is represented faithfully by complex D x D matrices with
D = 2**h, h = ceil(n/2).  ``multivector`` loads this module on the first
product that takes the matrix path, so a process that takes none never
compiles it; the rule that picks the path and the proof that both paths
give the same bits are in ``Multivector.geometric_product``.

Every blade is a Pauli string i**c Z**z X**x on h qubits: its entry (r,
r ^ x) is i**c (-1)**|r & z| and every other entry is 0.  So an operand's
entries with one x-mask are a Walsh-Hadamard transform of its
coefficients with that x-mask, and so are the traces that read the
product back.

At odd n the complexified algebra is two matrix algebras of size
b = 2**(n//2), split by the central pseudoscalar, whose matrix is a unit
times X on the top qubit.  Every blade acts on that qubit as I or X (the
top bit t of its mask), so in the top qubit's X eigenbasis each operand
is block diagonal, M+ (+) M-, with M+- the sum of c_s (+-1)**t i**c
times blade s's Pauli string on the lower qubits.  The product multiplies
the two b x b blocks, and blade s's trace is T+ + (-1)**t T-, T+- being
the traces of the blocks' products.  The butterflies' first pass, over t,
splits an operand into its blocks and forms T+ +- T- in the read-back.
Even n is the same code with one block, b = D.  Each operand and the
read-back are h butterfly passes over 2**n slots, 3 * h * 2**n additions,
besides the 2**(n % 2) * b**3 multiply-adds of the block products (D**3
at even n, D**3 / 4 at odd n).

Only the generators' squares come from the signature: the representation
never reads the sign kernel in ``blades``, so its products are a second
derivation of every blade sign (the tests compare the two).  A
signature's labels and slot tables are cached: 0.43 MB at n = 12 (0.47 MB
at the peak of the build) and 0.23 MB at n = 11, measured with
tracemalloc.
"""

from __future__ import annotations

import functools
from operator import add, itemgetter, mul, sub

# i**k for k = 0..3
_I_POWERS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


@functools.lru_cache(maxsize=None)
def matrix_rep(sig):
    """The blades of Cl(p,q) as Pauli strings: ``(xs, zs, cs)``, blade s
    being i**cs[s] Z**zs[s] X**xs[s], with entry (r, r ^ xs[s]) equal to
    i**cs[s] (-1)**|r & zs[s]|.

    Qubit j is bit j of a row index.  Generator k (bit k of a mask) is Z
    on every qubit below j = k // 2, X (k even) or Y = -iZX (k odd) on
    qubit j, and the identity above, times i when it squares to -1.  A
    blade s is s' e_k with k the top bit of s; row r of that product
    reads row r ^ xs[s'] of e_k, whose sign gives c_s its term
    2 |xs[s'] & z_k|.  No two blades share (x, z).
    """
    xs, zs, cs = [0], [0], [0]
    for s in range(1, 1 << sig.n):
        k = s.bit_length() - 1
        j, t = k >> 1, s ^ (1 << k)
        z = ((1 << j) - 1) | ((k & 1) << j)
        xs.append(xs[t] ^ (1 << j))
        zs.append(zs[t] ^ z)
        cs.append((cs[t] + 3 * (k & 1) + (k >= sig.p)
                   + 2 * (xs[t] & z).bit_count()) & 3)
    return xs, zs, cs


@functools.lru_cache(maxsize=None)
def _layout(sig):
    """What a product at ``sig`` reads besides the operands, from the
    labels, by blade mask s: ``(put, phases, get, factors, rows, cols)``.

    Write k = n // 2 and b = 2**k for the block size; t is bit k of blade
    s's x-mask (0 at even n) and x' its lower k bits:

    - ``put[s]``, ``phases[s]``: blade s's slot (t * b + z) * b + x' before
      the butterflies, and its i**c;
    - ``get[s]``, ``factors[s]``: its trace's slot x' * D + t * b + z
      after them, and conj(i**c) / D, which turns the trace into its
      coefficient;
    - ``rows[R]``, ``cols[C]``: getters of row R and column C of a built
      operand, in the top qubit's X eigenbasis at odd n, so that block
      R // b holds row R; entry (R, R ^ x') sits at slot x' * D + R.

    The slots and factors are shared objects, so the lists hold pointers.
    """
    xs, zs, cs = matrix_rep(sig)
    k = sig.n // 2
    b, d = 1 << k, 1 << (sig.n + 1) // 2
    slots = list(range(1 << sig.n))
    scaled = [p * (1.0 / d) for p in _I_POWERS]
    # row r and column c meet only the columns and rows of their block
    rows = [_getter([slots[(r ^ c) * d + r] for c in range(r & -b, (r & -b) + b)])
            for r in range(d)]
    cols = [_getter([slots[(r ^ c) * d + r] for r in range(c & -b, (c & -b) + b)])
            for c in range(d)]
    return ([slots[((x >> k) * b + z) * b + (x & b - 1)] for x, z in zip(xs, zs)],
            [_I_POWERS[c] for c in cs],
            [slots[(x & b - 1) * d + (x >> k) * b + z] for x, z in zip(xs, zs)],
            [scaled[-c & 3] for c in cs], rows, cols)


def _getter(slots: list):
    """itemgetter of the slots, which returns a tuple even for one slot
    (a 1 x 1 block, at n = 1)."""
    return itemgetter(*slots) if len(slots) > 1 else lambda y, i=slots[0]: (y[i],)


def _butterflies(y: list, h: int) -> list:
    """h Walsh-Hadamard passes over the top h bits of a slot: each pass
    takes the top bit, pairs the halves' sum and difference and moves its
    bit to the bottom, so slot x * 2**h + v ends holding the sum over w
    of (-1)**|v & w| times what slot w * len(y) / 2**h + x held."""
    half = len(y) >> 1
    for _ in range(h):
        a, b = y[:half], y[half:]
        y[::2] = map(add, a, b)
        y[1::2] = map(sub, a, b)
    return y


def matrix_product(sig, ta: dict, tb: dict) -> dict:
    """Terms of uv: both operands as block diagonal D x D matrices, the
    products of their b x b blocks, and each blade's coefficient
    tr(B_s^H P) / D plus 0j; the nonzero ones in ascending mask order.
    Exact only under the gate in ``Multivector.geometric_product``."""
    put, phases, get, factors, rows, cols = _layout(sig)
    h = (sig.n + 1) // 2
    b = 1 << sig.n // 2

    def matrix(terms):  # slot x' * D + R: the entry (R, R ^ x')
        y = [0j] * (1 << sig.n)
        for s, c in terms.items():
            y[put[s]] = c * phases[s]
        return _butterflies(y, h)

    u, v = matrix(ta), matrix(tb)
    vcols = [col(v) for col in cols]
    # slot R * b + x': P's entry (R, R ^ x'), which blades with x-mask
    # x' (and either t) read
    traces = _butterflies([sum(map(mul, urow, vcols[r ^ x]))
                           for r, urow in enumerate(row(u) for row in rows)
                           for x in range(b)], h)
    return {m: t for m, (slot, f) in enumerate(zip(get, factors))
            if (t := traces[slot] * f + 0j)}
