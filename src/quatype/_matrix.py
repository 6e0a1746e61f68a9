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
product back.  Each is h butterfly passes over a list of D**2 slots (2**n
at even n; at odd n 2**(n+1), half of which hold no blade), 3 * h * D**2 additions for
the two operands and the read-back, besides the D**3 multiply-adds of
the matrix product.

Only the generators' squares come from the signature: the representation
never reads the sign kernel in ``blades``, so its products are a second
derivation of every blade sign (the tests compare the two).  A
signature's labels and slot tables are cached: 0.43 MB at n = 12 (0.47 MB
at the peak of the build), measured with tracemalloc.
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

    - ``put[s]``, ``phases[s]``: blade s's slot z * D + x before the
      butterflies, and its i**c;
    - ``get[s]``, ``factors[s]``: its trace's slot x * D + z after them,
      and conj(i**c) / D, which turns the trace into its coefficient;
    - ``rows[r]``, ``cols[c]``: getters of row r and column c of a built
      operand, whose entry (r, c) sits at slot (r ^ c) * D + r.

    The slots and factors are shared objects, so the lists hold pointers.
    """
    xs, zs, cs = matrix_rep(sig)
    d = 1 << (sig.n + 1) // 2
    slots = list(range(d * d))
    scaled = [p * (1.0 / d) for p in _I_POWERS]
    rows = [itemgetter(*[slots[(r ^ c) * d + r] for c in range(d)]) for r in range(d)]
    cols = [itemgetter(*[slots[(r ^ c) * d + r] for r in range(d)]) for c in range(d)]
    return ([slots[z * d + x] for x, z in zip(xs, zs)],
            [_I_POWERS[c] for c in cs],
            [slots[x * d + z] for x, z in zip(xs, zs)],
            [scaled[-c & 3] for c in cs], rows, cols)


def _butterflies(y: list, h: int) -> list:
    """h Walsh-Hadamard passes over the top h bits of a slot: each pass
    takes the top bit, pairs the halves' sum and difference and moves its
    bit to the bottom, so slot x * D + r ends holding the sum over z of
    (-1)**|r & z| times what slot z * D + x held."""
    half = len(y) >> 1
    for _ in range(h):
        a, b = y[:half], y[half:]
        y[::2] = map(add, a, b)
        y[1::2] = map(sub, a, b)
    return y


def matrix_product(sig, ta: dict, tb: dict) -> dict:
    """Terms of uv: both operands as D x D matrices, their product P, and
    each blade's coefficient tr(B_s^H P) / D plus 0j; the nonzero ones in
    ascending mask order.  Exact only under the gate in
    ``Multivector.geometric_product``."""
    put, phases, get, factors, rows, cols = _layout(sig)
    h = (sig.n + 1) // 2
    d = 1 << h

    def matrix(terms):  # slot x * D + r: the entry (r, r ^ x)
        y = [0j] * (d * d)
        for s, c in terms.items():
            y[put[s]] = c * phases[s]
        return _butterflies(y, h)

    u, v = matrix(ta), matrix(tb)
    vcols = [col(v) for col in cols]
    # slot r * D + x: P's entry (r, r ^ x), which blades with x-mask x read
    traces = _butterflies([sum(map(mul, urow, vcols[r ^ x]))
                           for r, urow in enumerate(row(u) for row in rows)
                           for x in range(d)], h)
    return {m: t for m, (slot, f) in enumerate(zip(get, factors))
            if (t := traces[slot] * f + 0j)}
