"""Blade kernel tests.

The sign oracle below multiplies blades the definitional way: concatenate
the generator sequences, bubble-sort with a sign flip per swap, contract
equal neighbors against the metric.  The fast popcount path must agree with
it everywhere.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quatype import blades, multivector
from quatype.blades import (
    MAX_GENERATORS,
    Signature,
    blade_indices,
    canonical_sign,
    grade,
    mask_from_indices,
    sign_table,
)
from quatype._matrix import matrix_rep
from quatype.multivector import Field, Multivector, _pair_product


def oracle_sign(a: int, b: int, sig: Signature) -> tuple[int, int]:
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                swapped = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= sig.metric(seq[i])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    mask = 0
    for idx in out:
        mask |= 1 << (idx - 1)
    return sign, mask


def all_signatures(n: int) -> list[Signature]:
    return [Signature(p, n - p) for p in range(n + 1)]


def test_oracle_agrees_exhaustively_small_n():
    for n in range(1, 6):
        for sig in all_signatures(n):
            for a in sig.blades():
                for b in sig.blades():
                    assert canonical_sign(a, b, sig) == oracle_sign(a, b, sig)


@settings(max_examples=200)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1),
       st.integers(0, 12), st.integers(7, 12))
def test_oracle_agrees_n9(a, b, p, n):
    sig = Signature(p % (n + 1), n - p % (n + 1))
    a, b = a % sig.blade_count, b % sig.blade_count
    assert canonical_sign(a, b, sig) == oracle_sign(a, b, sig)


def test_frozen_sign_values():
    # e12 * e1 = -e2 in (3,0)
    sig = Signature(3, 0)
    assert canonical_sign(0b011, 0b001, sig) == (-1, 0b010)
    # one transposition separates e13 * e2 from ascending order
    assert canonical_sign(0b101, 0b010, sig) == (-1, 0b111)
    # e1 * e1 against each metric
    assert canonical_sign(0b1, 0b1, Signature(1, 0)) == (1, 0)
    assert canonical_sign(0b1, 0b1, Signature(0, 1)) == (-1, 0)


def test_generator_squares_match_metric():
    for n in range(1, 7):
        for sig in all_signatures(n):
            for i in range(1, n + 1):
                mask = 1 << (i - 1)
                assert canonical_sign(mask, mask, sig) == (sig.metric(i), 0)


def test_generators_anticommute():
    sig = Signature(2, 3)
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            a, b = 1 << (i - 1), 1 << (j - 1)
            sa, ma = canonical_sign(a, b, sig)
            sb, mb = canonical_sign(b, a, sig)
            assert ma == mb == a | b
            assert sa == -sb


def test_identity_blade_is_neutral():
    sig = Signature(2, 2)
    for a in sig.blades():
        assert canonical_sign(0, a, sig) == (1, a)
        assert canonical_sign(a, 0, sig) == (1, a)


def test_product_is_associative_exhaustive():
    for n in (1, 2, 3, 4):
        for sig in all_signatures(n):
            for a in sig.blades():
                for b in sig.blades():
                    s_ab, ab = canonical_sign(a, b, sig)
                    for c in sig.blades():
                        s_bc, bc = canonical_sign(b, c, sig)
                        s1, m1 = canonical_sign(ab, c, sig)
                        s2, m2 = canonical_sign(a, bc, sig)
                        assert m1 == m2
                        assert s_ab * s1 == s_bc * s2


@settings(max_examples=300)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_product_is_associative_sampled(a, b, c):
    sig = Signature(3, 3)
    s_ab, ab = canonical_sign(a, b, sig)
    s_bc, bc = canonical_sign(b, c, sig)
    s1, m1 = canonical_sign(ab, c, sig)
    s2, m2 = canonical_sign(a, bc, sig)
    assert (s_ab * s1, m1) == (s_bc * s2, m2)


def direct_sign_bit(a: int, b: int, sig: Signature) -> int:
    """Sign bit of e_a * e_b: the inversions (j in a, i in b, j > i) that
    sorting the concatenation undoes, plus the shared generators that
    square to -1."""
    inversions = sum((b & ((1 << j) - 1)).bit_count()
                     for j in range(sig.n) if a >> j & 1)
    return (inversions + ((a & b) >> sig.p).bit_count()) & 1


def test_sign_table_matches_direct_computation():
    # Every entry at every signature.  low1[aL][bL] is the bit of
    # (aL | e_(h+1)) * bL: one high generator in a, none in b.
    for n in range(1, 13):
        for sig in all_signatures(n):
            # sign bits, 0 for +1 and 1 for -1: a stray ±1 entry would index
            # a product's (cb, -cb) pair at -1 or -2
            h, (low0, low1), high = sign_table(sig)
            for table in (low0, low1, high):
                assert {s for row in table for s in row} <= {0, 1}
            for a, row in enumerate(low0):
                for b, s in enumerate(row):
                    assert low1[a][b] == s ^ (b.bit_count() & 1)
                    assert s == direct_sign_bit(a, b, sig), (sig, a, b)
                    if n > 1:
                        assert low1[a][b] == direct_sign_bit(a | 1 << h, b, sig)
            for a, row in enumerate(high):
                for b, s in enumerate(row):
                    assert s == direct_sign_bit(a << h, b << h, sig), (sig, a, b)


def test_grade_is_popcount():
    assert grade(0) == 0
    assert grade(0b1011) == 3
    assert grade((1 << 12) - 1) == 12


def test_blade_indices_round_trip():
    for mask in range(64):
        idx = blade_indices(mask)
        assert list(idx) == sorted(idx)
        assert mask_from_indices(idx, 6) == mask


def test_blade_indices_rejects_bad_masks():
    # a negative mask never empties under >>, and a bool is not a mask
    for bad in (-1, -4096, True, False, 1.0, "3", None):
        with pytest.raises(ValueError, match="blade mask"):
            blade_indices(bad)


def test_mask_from_indices_rejects_bad_input():
    with pytest.raises(ValueError):
        mask_from_indices([2, 1], 4)
    with pytest.raises(ValueError):
        mask_from_indices([1, 1], 4)
    with pytest.raises(ValueError):
        mask_from_indices([5], 4)
    with pytest.raises(ValueError):
        mask_from_indices([0], 4)
    with pytest.raises(ValueError, match="index True"):
        mask_from_indices([True], 2)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(7, 6)
    for bad in ((1.0, 1), (True, 1), (1, False)):
        with pytest.raises(TypeError, match="must be integers"):
            Signature(*bad)


def test_signature_metric_and_str():
    sig = Signature(2, 3)
    assert [sig.metric(i) for i in range(1, 6)] == [1, 1, -1, -1, -1]
    assert sig.n == 5
    assert sig.blade_count == 32
    assert str(sig) == "Cl(2,3)"
    with pytest.raises(ValueError):
        sig.metric(0)
    with pytest.raises(ValueError):
        sig.metric(6)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="index"):
            sig.metric(bad)


# A second derivation of the sign kernel: the product's matrix
# representation builds every blade from the generators alone, so its
# products give each blade pair's sign without reading the sign table.

def rep_blade(sig: Signature, s: int) -> tuple:
    """Blade s as a monomial matrix of matrix_rep: (x-mask, phase by row),
    the phase at row r being i**c (-1)**|r & z| from blade s's labels."""
    xs, zs, cs = matrix_rep(sig)
    return xs[s], [(1, 1j, -1, -1j)[(cs[s] + 2 * (r & zs[s]).bit_count()) & 3]
                   for r in range(1 << (sig.n + 1) // 2)]


def rep_mul(a: tuple, b: tuple) -> tuple:
    """Product of two monomial matrices: row r of a reads row r ^ xa of b."""
    (xa, pa), (xb, pb) = a, b
    return xa ^ xb, [pa[r] * pb[r ^ xa] for r in range(len(pa))]


def assert_rep_matches_sign_kernel(sig: Signature, pairs) -> None:
    d = 1 << (sig.n + 1) // 2
    for i in range(sig.n):
        e_i = rep_blade(sig, 1 << i)
        assert rep_mul(e_i, e_i) == (0, [sig.metric(i + 1)] * d)
        for j in range(i):
            e_j = rep_blade(sig, 1 << j)
            x, ph = rep_mul(e_j, e_i)
            assert rep_mul(e_i, e_j) == (x, [-c for c in ph])
    for a, b in pairs:
        s, m = canonical_sign(a, b, sig)
        x, ph = rep_blade(sig, m)
        assert rep_mul(rep_blade(sig, a), rep_blade(sig, b)) == (x, [s * c for c in ph])


def test_matrix_rep_derives_every_sign_to_n6():
    for n in range(1, 7):
        for sig in all_signatures(n):
            masks = sig.blades()
            assert_rep_matches_sign_kernel(sig, ((a, b) for a in masks for b in masks))
            # tr(B_s^H B_t) = D when s == t and 0 otherwise, which the
            # product's read-back rests on; only blades with one x-mask
            # share nonzero entries
            d = 1 << (n + 1) // 2
            rep = [rep_blade(sig, s) for s in masks]
            for x in range(d):
                group = [s for s in masks if rep[s][0] == x]
                for s in group:
                    for t in group:
                        tr = sum(c.conjugate() * p for c, p in zip(rep[s][1], rep[t][1]))
                        assert tr == (d if s == t else 0)


def test_matrix_rep_labels_are_distinct_at_every_signature():
    # the read-back puts blade s's trace at a slot made of its x- and
    # z-mask, so no two blades may share (x, z); both masks fit h bits
    for n in range(1, MAX_GENERATORS + 1):
        h = (n + 1) // 2
        for sig in all_signatures(n):
            xs, zs, _ = matrix_rep(sig)
            assert len(set(zip(xs, zs))) == len(xs) == 1 << n, sig
            assert max(xs) < 1 << h and max(zs) < 1 << h
        matrix_rep.cache_clear()


def test_matrix_rep_top_qubit_is_identity_or_x_at_odd_n():
    # the product's block split rests on this: at odd n every blade acts
    # on the top qubit as I or X, by the top bit of its mask
    for n in range(1, MAX_GENERATORS + 1, 2):
        for sig in all_signatures(n):
            xs, zs, _ = matrix_rep(sig)
            for s in range(1 << n):
                assert zs[s] >> (n // 2) == 0, (sig, s)
                assert xs[s] >> (n // 2) == (s >> (n - 1)) & 1, (sig, s)
        matrix_rep.cache_clear()


@pytest.mark.parametrize("n", range(7, 13))
def test_matrix_rep_derives_seeded_signs_to_n12(n):
    rng = random.Random(n)
    h = (n + 1) // 2
    for p in (0, h - 1, h, n):
        sig = Signature(p, n - p)
        pairs = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(200)]
        assert_rep_matches_sign_kernel(sig, pairs)
        matrix_rep.cache_clear()  # 0.1 MB of labels at n = 12


def test_sign_table_matches_matrix_rep_at_every_signature():
    # Pauli strings multiply as i**c_s Z**z_s X**x_s i**c_t Z**z_t X**x_t =
    # i**(c_s + c_t) (-1)**|x_s & z_t| Z**(z_s ^ z_t) X**(x_s ^ x_t), and the
    # labels are XOR-linear in the mask, so e_s e_t = i**e e_(s ^ t) with
    # e = c_s + c_t - c_(s ^ t) + 2 |x_s & z_t|: every entry in O(1), from
    # labels built from the generators alone
    for n in range(1, MAX_GENERATORS + 1):
        for sig in all_signatures(n):
            xs, zs, cs = matrix_rep(sig)

            def exponent(s, t):
                return cs[s] + cs[t] - cs[s ^ t] + 2 * (xs[s] & zs[t]).bit_count()

            # the labels' premises: e_i**2 = eta_i, e_i e_j = -e_j e_i
            for i in range(n):
                g = 1 << i
                assert exponent(g, g) & 3 == (0 if i < sig.p else 2), (sig, i)
                for j in range(i):
                    assert (exponent(g, 1 << j) - exponent(1 << j, g)) & 3 == 2
            h, (low0, low1), high = sign_table(sig)
            # (table, high bits of a, shift): low1[aL][bL] is the entry of
            # (aL | e_(h+1)) * bL, read only when a has a high generator
            parts = [(low0, 0, 0), (high, 0, h)] + [(low1, 1 << h, 0)] * (n > h)
            for table, top, shift in parts:
                for a, row in enumerate(table):
                    s = top | a << shift
                    es = [exponent(s, b << shift) for b in range(len(row))]
                    assert not any(e & 1 for e in es), (sig, a)  # a real sign
                    assert row == [e >> 1 & 1 for e in es], (sig, a)
        matrix_rep.cache_clear()


def test_matrix_rep_and_product_read_no_sign_kernel(monkeypatch):
    sig = Signature(3, 3)
    rng = random.Random(6)
    u, v = (Multivector(sig, Field.COMPLEX, {
        m: complex(rng.randint(1, 3), rng.randint(-3, 3)) for m in sig.blades()})
        for _ in range(2))
    want = _pair_product(sig, u.terms, v.terms)

    def refuse(*args):
        raise AssertionError("the sign kernel was read")

    # monkeypatch.setattr fails on a name that blades lacks, so a rename
    # cannot drop out of this list unseen
    for module in (blades, multivector):
        for name in ("sign_table", "canonical_sign", "_form"):
            if module is blades or hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    matrix_rep.cache_clear()
    try:
        for p in range(7):
            matrix_rep(Signature(p, 6 - p))
        got = u.geometric_product(v)  # dense integer: the matrix path
    finally:
        matrix_rep.cache_clear()
    assert [(m, c.real.hex(), c.imag.hex()) for m, c in got.terms.items()] == \
        [(m, c.real.hex(), c.imag.hex()) for m, c in want.items()]
