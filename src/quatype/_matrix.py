"""The product's matrix path: Cl(p,q) as complex D x D matrices.

Over C, Cl(p,q) is represented faithfully by complex D x D matrices with
D = 2**h, h = ceil(n/2).  ``multivector`` loads this module on the first
product that takes the matrix path, so a process that takes none never
compiles it; the rule that picks the path and the proof that both paths
give the same bits are in ``Multivector.geometric_product``.

Only the generators' squares come from the signature: the representation
never reads the sign kernel in ``blades``, so its products are a second
derivation of every blade sign (the tests compare the two).
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import mul

# i**k for k = 0..3: every entry of every blade matrix is one of these.
_I_POWERS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


@functools.lru_cache(maxsize=None)
def matrix_rep(sig):
    """The blade matrices of Cl(p,q): ``(groups, build, xs, conj)``.

    Qubit j is bit j of a row index.  Generator k (bit k of a mask) is Z
    on every qubit below k // 2, X (k even) or Y (k odd) on qubit k // 2,
    and the identity above, times i when it squares to -1.  A blade is
    the ascending product of its generators, a monomial matrix: entry
    (r, r ^ xs[s]) is i**e_s(r) and every other entry is 0.

    - ``groups[x]``: the blade masks with x-mask x, ascending (2**n / D
      each);
    - ``build[x][r]``: the phases of those blades at row r, in that order;
    - ``xs[s]``: blade s's x-mask;
    - ``conj[s]``: the complex conjugates of blade s's phases, by row.

    Every phase is one of four shared complex objects, so the tables hold
    pointers only: 0.1 MB at n = 8 and 4.8 MB at n = 12 (7.1 MB at the
    peak of the build), measured with tracemalloc.
    """
    n, h = sig.n, (sig.n + 1) // 2
    rows = range(1 << h)
    gens = []  # e_k(r) for generator k, whose x-mask is the bit of its qubit
    for k in range(n):
        j = k >> 1
        gens.append([(2 * (r & ((1 << j) - 1)).bit_count()  # Z: -1 per bit below j
                      + (k & 1) * (3 - 2 * (r >> j & 1))    # Y: -i at bit 0, i at 1
                      + (k >= sig.p)) & 3                   # i when e_k**2 = -1
                     for r in rows])
    # blade s is blade s' = s without its top generator k, times e_k: the
    # monomial product puts e_s'(r) + e_k(r ^ xs[s']) at row r
    xs, powers = [0], [[0] * len(rows)]
    for s in range(1, 1 << n):
        k = s.bit_length() - 1
        x, e = xs[s ^ (1 << k)], powers[s ^ (1 << k)]
        gen = gens[k]
        xs.append(x ^ (1 << (k >> 1)))
        powers.append([(e[r] + gen[r ^ x]) & 3 for r in rows])
    groups = [[] for _ in rows]
    for s, x in enumerate(xs):
        groups[x].append(s)
    build = [[tuple(_I_POWERS[powers[s][r]] for s in group) for r in rows]
             for group in groups]
    conj = [tuple(_I_POWERS[-k & 3] for k in e) for e in powers]
    return groups, build, xs, conj


def matrix_product(sig, ta: dict, tb: dict) -> dict:
    """Terms of uv: both operands as D x D matrices, their product P, and
    each blade's coefficient tr(B_s^H P) / D plus 0j; the nonzero ones in
    ascending mask order.  Exact only under the gate in
    ``Multivector.geometric_product``."""
    groups, build, xs, conj = matrix_rep(sig)
    rows = range(len(groups))

    def matrix(terms):  # entry (r, c) sums the blades with x-mask r ^ c
        coeffs = [list(map(terms.get, group, repeat(0))) for group in groups]
        return [[sum(map(mul, coeffs[r ^ c], build[r ^ c][r])) for c in rows]
                for r in rows]

    u, cols = matrix(ta), list(zip(*matrix(tb)))
    # diag[x][r] is P's entry (r, r ^ x), the one blades with x-mask x read
    diag = [[sum(map(mul, u[r], cols[r ^ x])) for r in rows] for x in rows]
    inv = 1.0 / len(rows)
    return {m: t * inv + 0j
            for m, t in enumerate(sum(map(mul, ph, diag[x]))
                                  for x, ph in zip(xs, conj)) if t}
