"""Multivector arithmetic tests.

The conjugation oracle rebuilds each blade as an explicit reversed product
of generators before conjugating the coefficient, so the closed-form sign
in the implementation is checked against the definition.
"""

import cmath
import copy
import math
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quatype import _matrix
from quatype.blades import MAX_GENERATORS, Signature, blade_indices, canonical_sign
from quatype.exprio import format_expression, parse_expression
from quatype.multivector import (
    ConvergenceFailure,
    Field,
    FieldMismatch,
    Multivector,
    RankOutOfRange,
    SignatureMismatch,
    _ROW_CACHE_ENTRIES,
    _integer_l1,
    _pair_product,
    _xor_span,
)
from test_blades import oracle_sign

S22 = Signature(2, 2)


def oracle_conjugate(u: Multivector) -> Multivector:
    total = Multivector.zero(u.sig, u.field)
    for mask, c in u.terms.items():
        prod = Multivector.scalar(u.sig, 1, u.field)
        for idx in reversed(blade_indices(mask)):
            prod = prod.geometric_product(
                Multivector.basis_blade(u.sig, 1 << (idx - 1), 1, u.field)
            )
        total = total + prod.scale(complex(c).conjugate())
    return total


def random_mv(sig: Signature, rng: random.Random, field: Field = Field.COMPLEX,
              span: int = 3) -> Multivector:
    terms = {}
    for mask in sig.blades():
        re = rng.randint(-span, span)
        im = rng.randint(-span, span) if field is Field.COMPLEX else 0
        if re or im:
            terms[mask] = complex(re, im)
    return Multivector(sig, field, terms)


# ----------------------------------------------------------------------
# construction and invariants

def test_zero_terms_are_dropped():
    u = Multivector(S22, Field.COMPLEX, {0: 1, 0b11: 0})
    assert set(u.terms) == {0}
    assert not Multivector(S22, Field.COMPLEX, {})
    assert Multivector.zero(S22).is_zero()


def test_duplicate_masks_accumulate():
    u = Multivector(S22, Field.REAL, {0b1: 2})
    v = u + Multivector(S22, Field.REAL, {0b1: -2})
    assert v.is_zero()
    assert v.coefficient(0b1) == 0


def test_real_field_rejects_imaginary_parts():
    with pytest.raises(FieldMismatch):
        Multivector(S22, Field.REAL, {0: 1j})
    Multivector(S22, Field.COMPLEX, {0: 1j})  # fine over C


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        Multivector(S22, Field.COMPLEX, {0: float("nan")})
    with pytest.raises(ValueError):
        Multivector(S22, Field.COMPLEX, {0: float("inf") * 1j})
    with pytest.raises(ValueError):  # no double holds it
        Multivector(S22, Field.COMPLEX, {0: 10 ** 400})
    with pytest.raises(ValueError):  # each term is finite, their sum is not
        Multivector(Signature(2, 0), Field.REAL, [(1, 1e308), (1, 1e308)])


def test_str_and_bool_coefficients_rejected():
    # complex() would parse "3" and count True as 1
    sig = Signature(2, 0)
    u = Multivector.basis_blade(sig, 0b01, 1)
    for bad in ("3", True, False):
        with pytest.raises(TypeError, match="coefficient must be a number"):
            Multivector(sig, Field.REAL, {0: bad})
        with pytest.raises(TypeError, match="coefficient must be a number"):
            u.scale(bad)
    with pytest.raises(TypeError):
        u * True


def test_overflowing_results_rejected():
    sig = Signature(2, 0)
    big = Multivector.basis_blade(sig, 0b01, 1e190)
    with pytest.raises(ValueError):
        big.geometric_product(big)
    u = Multivector.basis_blade(sig, 0b01, 1e308)
    v = Multivector.basis_blade(sig, 0b10, 1)
    with pytest.raises(ValueError):  # 1e308 e12 - (-1e308 e12)
        u.commutator(v)
    with pytest.raises(ValueError):
        u.scale(10)
    # real-valued operands run as floats, with the same refusals: a REAL
    # product and bracket, and exp(1e4), whose squarings overflow
    big = Multivector.basis_blade(sig, 0b01, 1e190, Field.REAL)
    with pytest.raises(ValueError):
        big.geometric_product(big)
    with pytest.raises(ValueError):  # each of its products overflows
        big.commutator(big)
    for field in (Field.REAL, Field.COMPLEX):
        with pytest.raises(ValueError, match="overflows a double"):
            Multivector.scalar(Signature(1, 0), 1000e1, field).exp()


def test_underflowing_products_are_zero():
    # every pair underflows to a signed zero, which a +0 slot clears
    sig = Signature(2, 1)
    for field in (Field.REAL, Field.COMPLEX):
        u = Multivector(sig, field, {0: 1e-200, 0b011: -3e-200, 0b101: 2e-200})
        v = Multivector(sig, field, {0b001: -1e-200, 0b110: 1e-200})
        for w in (u, -u, u.conjugate()):
            assert w.geometric_product(v) == Multivector.zero(sig, field)
            assert not v.geometric_product(w).terms
            assert not w.anticommutator(v).terms


def test_scale_drops_underflowing_coefficients():
    sig = Signature(2, 0)
    zero = Multivector.zero(sig)
    u = Multivector.scalar(sig, 1e-200).scale(1e-200)
    assert u == zero and not u
    assert Multivector.basis_blade(sig, 0b11, 1e-200j).scale(1e-200j) == zero
    mixed = Multivector(sig, Field.COMPLEX, {0: 1e-200, 0b01: 1.0}).scale(1e-200)
    assert mixed == Multivector.basis_blade(sig, 0b01, 1e-200)
    assert parse_expression(format_expression(u), sig, u.field) == u


def test_invalid_blade_mask_rejected():
    with pytest.raises(ValueError):
        Multivector(S22, Field.COMPLEX, {1 << 4: 1})
    with pytest.raises(ValueError):
        Multivector(S22, Field.COMPLEX, {-1: 1})
    # a bool is refused, not read as mask 0 or 1
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="blade mask True"):
        Multivector(sig, Field.REAL, [(True, 1.0)])
    with pytest.raises(ValueError, match="blade mask True"):
        Multivector.basis_blade(sig, True)
    with pytest.raises(ValueError, match="blade mask False"):
        Multivector.scalar(sig, 1).coefficient(False)
    with pytest.raises(ValueError, match="blade mask True"):
        Multivector.basis_blade(sig, 1).coefficient(True)


def test_immutability():
    u = Multivector.scalar(S22, 3)
    with pytest.raises(AttributeError):
        u.field = Field.REAL
    with pytest.raises(TypeError):
        u.terms[0] = 5


def test_copy_and_pickle_keep_term_order_and_bits():
    # Negation leaves -0.0 parts, which the validating constructor would
    # turn into 0.0; the terms are listed out of mask order.
    u = -Multivector(S22, Field.COMPLEX, {0b101: 1.5, 0: 2, 0b11: 1e-300 + 3j})

    def bits(v):
        return [(m, c.real.hex(), c.imag.hex()) for m, c in v.terms.items()]

    assert [m for m, _, _ in bits(u)] == [0b101, 0, 0b11]
    assert "-0x0.0p+0" in bits(u)[0]
    twins = [copy.copy(u), copy.deepcopy(u)]
    twins += [pickle.loads(pickle.dumps(u, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is Multivector and twin == u
        assert twin.sig == u.sig and twin.field is u.field
        assert bits(twin) == bits(u)


def test_mixed_signature_and_field_raise():
    u = Multivector.scalar(Signature(2, 2), 1)
    v = Multivector.scalar(Signature(4, 0), 1)
    with pytest.raises(SignatureMismatch):
        u + v
    w = Multivector.scalar(Signature(2, 2), 1, Field.REAL)
    with pytest.raises(FieldMismatch):
        u.geometric_product(w)
    with pytest.raises(TypeError, match="^expected Multivector, got int$"):
        u + 3
    with pytest.raises(TypeError, match="^sig must be a Signature$"):
        Multivector("Cl(2,2)", Field.REAL)
    with pytest.raises(TypeError, match="^field must be a Field$"):
        Multivector(S22, "R")


def test_equality_is_exact():
    u = Multivector.scalar(S22, 1.0)
    v = Multivector.scalar(S22, 1.0 + 1e-15)
    assert u == Multivector.scalar(S22, 1)
    assert u != v
    # not equal to a number, even one it holds as a scalar
    assert not u == 1 and u != 1


def test_repr_lists_terms_in_mask_order():
    u = Multivector(S22, Field.REAL, {0b110: -1, 0b1: 2})
    assert repr(u) == "Multivector(Cl(2,2), R, {0x1: (2+0j), 0x6: (-1+0j)})"
    assert repr(Multivector.zero(S22)) == "Multivector(Cl(2,2), C, {})"


# ----------------------------------------------------------------------
# products

def test_generator_relations_by_product():
    sig = Signature(1, 1)
    e1 = Multivector.basis_blade(sig, 0b01)
    e2 = Multivector.basis_blade(sig, 0b10)
    assert e1.geometric_product(e1) == Multivector.scalar(sig, 1)
    assert e2.geometric_product(e2) == Multivector.scalar(sig, -1)
    assert e1.geometric_product(e2) == -e2.geometric_product(e1)


def test_quaternion_relations_in_cl02():
    # i -> e1, j -> e2, k -> e12 reproduces all eight unit relations
    sig = Signature(0, 2)
    e = Multivector.scalar(sig, 1, Field.REAL)
    i = Multivector.basis_blade(sig, 0b01, 1, Field.REAL)
    j = Multivector.basis_blade(sig, 0b10, 1, Field.REAL)
    k = Multivector.basis_blade(sig, 0b11, 1, Field.REAL)
    assert i * i == -e
    assert j * j == -e
    assert k * k == -e
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * j == -i
    assert k * i == j
    assert i * k == -j


def oracle_product(u: Multivector, v: Multivector) -> Multivector:
    terms = []
    for a, ca in u.terms.items():
        for b, cb in v.terms.items():
            s, m = oracle_sign(a, b, u.sig)
            terms.append((m, s * ca * cb))
    return Multivector(u.sig, u.field, terms)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_products_match_sign_oracle_at_large_n(n):
    # p below, at and above the split point h of the sign table, and both ends
    h = (n + 1) // 2
    rng = random.Random(n)
    for p in (0, h - 1, h, h + 1, n):
        sig = Signature(p, n - p)
        u, v = (Multivector(sig, Field.COMPLEX, {
            rng.randrange(1 << n): complex(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(12)}) for _ in range(2))
        uv, vu = oracle_product(u, v), oracle_product(v, u)
        assert u.geometric_product(v) == uv
        assert u.commutator(v) == uv - vu
        assert u.anticommutator(v) == uv + vu


def signed_pair_sum(u: Multivector, v: Multivector, sign=canonical_sign) -> dict:
    """uv as a sum of canonical_sign(a, b) * ca * cb into +0j slots, a in
    ascending order and b in v's order; nonzero slots in ascending order."""
    slots = {}
    for a, ca in sorted(u.terms.items()):
        for b, cb in v.terms.items():
            s, m = sign(a, b, u.sig)
            slots[m] = slots.get(m, 0j) + s * ca * cb
    return {m: c for m, c in sorted(slots.items()) if c}


def test_product_bits_match_signed_pair_sums():
    # Non-integer coefficients round, so equal bits pin the summation order
    # and the per-pair expression, which integer operands cannot.
    rng = random.Random(20261019)
    pairs = []
    for n in range(1, 9):
        for field in (Field.REAL, Field.COMPLEX):
            for _ in range(4):
                p = rng.randint(0, n)
                sig = Signature(p, n - p)
                pairs.append([Multivector(sig, field, {
                    m: complex(rng.uniform(-2, 2),
                               rng.uniform(-2, 2) if field is Field.COMPLEX else 0.0)
                    for m in rng.sample(range(1 << n), rng.randint(1, min(1 << n, 24)))})
                    for _ in range(2)])
    sig = Signature(5, 7)
    pairs.append([Multivector(sig, Field.COMPLEX, {
        rng.randrange(1 << 12): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for _ in range(16)}) for _ in range(2)])
    # COMPLEX operands whose imaginary parts are all +0.0 or -0.0 run as
    # floats, like REAL ones: negation makes every part -0.0, and conjugate()
    # those of grades 0 and 1 mod 4.  One real-valued operand times a complex
    # one does not.
    for n in (2, 5, 8, 12):
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        real, cplx = (Multivector(sig, Field.COMPLEX, {
            m: complex(rng.uniform(-2, 2), rng.uniform(-2, 2) * im)
            for m in rng.sample(range(1 << n), min(1 << n, 16))}) for im in (0, 1))
        pairs += [[real, -real], [-real, real.conjugate()],
                  [real.conjugate(), -real.conjugate()], [real, cplx], [cplx, -real]]
    for u, v in pairs:
        assert_bits_match_signed_pair_sums(u, v)


def assert_bits_match_signed_pair_sums(u: Multivector, v: Multivector,
                                      sign=canonical_sign) -> None:
    """uv, [u, v] and {u, v} have the bits and the term order of the signed
    pair sums, and no zero part of theirs is -0.0."""
    uv, vu = signed_pair_sum(u, v, sign), signed_pair_sum(v, u, sign)
    masks = sorted(uv.keys() | vu.keys())
    for got, want in (
        (u.geometric_product(v), uv),
        (u.commutator(v), {m: uv.get(m, 0j) - vu.get(m, 0j) for m in masks}),
        (u.anticommutator(v), {m: uv.get(m, 0j) + vu.get(m, 0j) for m in masks}),
    ):
        # _bits keeps the result's term order, so the order is compared too
        assert _bits(got) == [(m, c.real.hex(), c.imag.hex())
                              for m, c in want.items() if c], (u, v)
        assert all(type(c) is complex for c in got.terms.values())
        assert not any(x == 0 and math.copysign(1.0, x) < 0
                       for c in got.terms.values() for x in (c.real, c.imag))


def dense_integer_pairs(rng: random.Random, sig: Signature) -> list:
    """Operand pairs on every blade of ``sig`` with small integer parts:
    REAL, COMPLEX, and real-valued COMPLEX (imaginary parts +0.0 on the
    left and -0.0 on the right, after negation)."""
    def dense(field, imag):
        return Multivector(sig, field, {
            m: complex(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3) * imag)
            for m in sig.blades()})
    return [[dense(Field.REAL, 0), dense(Field.REAL, 0)],
            [dense(Field.COMPLEX, 1), dense(Field.COMPLEX, 1)],
            [dense(Field.COMPLEX, 0), -dense(Field.COMPLEX, 0)]]


@pytest.mark.parametrize("n", range(1, 9))
def test_dense_integer_products_match_signed_pair_sums(n):
    # Every signature with this n.  Dense integer operands take the matrix
    # path at n >= 4 and the pair loop below; integer sums are exact, so both
    # must give the pair sums' bits, with every zero part +0.0.
    rng = random.Random(n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        # canonical_sign once per blade pair, not once per pair and product
        signs = [[canonical_sign(a, b, sig) for b in sig.blades()]
                 for a in sig.blades()]
        for u, v in dense_integer_pairs(rng, sig):
            assert_bits_match_signed_pair_sums(
                u, v, lambda a, b, sig: signs[a][b])


def test_matrix_path_runs_only_under_its_gate(monkeypatch):
    calls = []
    matrix_product = _matrix.matrix_product

    def counted(sig, ta, tb, sign=0):
        calls.append(sig)
        return matrix_product(sig, ta, tb, sign)

    monkeypatch.setattr(_matrix, "matrix_product", counted)

    def takes_matrix_path(u, v):
        calls.clear()
        u.geometric_product(v)
        return len(calls) == 1

    rng = random.Random(27)
    for n in range(1, 9):
        for u, v in dense_integer_pairs(rng, Signature(n // 2, n - n // 2)):
            assert takes_matrix_path(u, v) is (n >= 4), (n, u.field)
    # the matrix path's cost 3 * 2**n * h + 2**(n % 2) * b**3, h = ceil(n/2),
    # b = 2**(n//2), against la * lb; it is a multiple of 2**n, so
    # (cost / 2**n, 2**n) terms sit on it exactly
    for n, cost in ((4, 160), (5, 416), (6, 1088), (7, 2560), (8, 7168), (9, 15872)):
        sig = Signature(n // 2, n - n // 2)
        root, dense = math.isqrt(cost), 1 << n
        for (la, lb), matrix in (((root, root), False), ((root + 1, root + 1), True),
                                 ((cost // dense, dense), False),
                                 ((cost // dense + 1, dense), True)):
            u, v = (Multivector(sig, Field.COMPLEX, {
                m: complex(rng.randint(1, 3), rng.randint(-3, 3))
                for m in rng.sample(range(dense), size)}) for size in (la, lb))
            assert takes_matrix_path(u, v) is matrix, (n, la, lb)
            assert takes_matrix_path(v, u) is matrix, (n, lb, la)
    # sparse integer operands at n = 10 and 12, as in the benchmark's mix
    for n, (la, lb) in ((10, (64, 256)), (12, (128, 128))):
        sig = Signature(n // 2, n - n // 2)
        u, v = (Multivector(sig, Field.COMPLEX, {
            m: complex(rng.randint(1, 3), rng.randint(-3, 3))
            for m in rng.sample(range(1 << n), size)}) for size in (la, lb))
        assert not takes_matrix_path(u, v)
    sig = Signature(4, 4)
    u, v = dense_integer_pairs(rng, sig)[1]
    assert takes_matrix_path(u, v)
    half = Multivector(sig, Field.COMPLEX, {0: 0.5})
    assert not takes_matrix_path(u + half, v)
    assert not takes_matrix_path(u, v + half.scale(1j))
    # l1(u) * l1(v) * D against 2**53 at n = 6 (D = 8): v's l1 is 64, u's is
    # 63 + c, so c = 2**44 - 63 puts the product at 2**53 exactly
    sig = Signature(3, 3)
    v = Multivector(sig, Field.REAL, {m: 1 for m in sig.blades()})
    for c, matrix in ((2 ** 44 - 64, True), (2 ** 44 - 63, False)):
        u = Multivector(sig, Field.REAL, {m: c if m == 5 else 1 for m in sig.blades()})
        assert takes_matrix_path(u, v) is matrix
        assert_bits_match_signed_pair_sums(u, v)


def test_bracket_takes_one_matrix_pass_only_under_its_gate(monkeypatch):
    kernel, products = [], []
    matrix_product = _matrix.matrix_product
    geometric_product = Multivector.geometric_product

    def counted_kernel(sig, ta, tb, sign=0):
        kernel.append(sign)
        return matrix_product(sig, ta, tb, sign)

    def counted_product(u, v):
        products.append(v)
        return geometric_product(u, v)

    monkeypatch.setattr(_matrix, "matrix_product", counted_kernel)
    monkeypatch.setattr(Multivector, "geometric_product", counted_product)

    def routes(u, v):
        """(kernel signs, public products) of [u, v] and then {u, v}."""
        out = []
        for bracket in (u.commutator, u.anticommutator):
            kernel.clear()
            products.clear()
            bracket(v)
            out.append((kernel[:], len(products)))
        return out

    one_pass = [([-1], 0), ([1], 0)]
    two_products = [([], 2), ([], 2)]
    rng = random.Random(38)
    # at n <= 3 la * lb never exceeds the matrix path's cost (at n = 3,
    # 64 = 64), so dense brackets there stay on two pair-loop products
    for n in range(1, 9):
        for u, v in dense_integer_pairs(rng, Signature(n // 2, n - n // 2)):
            assert routes(u, v) == (one_pass if n >= 4 else two_products), (n, u.field)
    # sparse integer operands at n = 10 and 12, as in the benchmark's mix
    for n, (la, lb) in ((10, (64, 256)), (12, (128, 128))):
        sig = Signature(n // 2, n - n // 2)
        u, v = (Multivector(sig, Field.COMPLEX, {
            m: complex(rng.randint(1, 3), rng.randint(-3, 3))
            for m in rng.sample(range(1 << n), size)}) for size in (la, lb))
        assert routes(u, v) == two_products, n
    sig = Signature(3, 3)
    u, v = dense_integer_pairs(rng, sig)[1]
    half = Multivector(sig, Field.COMPLEX, {0: 0.5})
    assert routes(u + half, v) == two_products
    assert routes(u, v + half.scale(1j)) == two_products
    # operands of another field or signature are refused before the gate
    real = dense_integer_pairs(rng, sig)[0][0]
    other = dense_integer_pairs(rng, Signature(4, 2))[1][0]
    for w, error in ((real, FieldMismatch), (other, SignatureMismatch)):
        for bracket in (u.commutator, u.anticommutator):
            kernel.clear()
            products.clear()
            with pytest.raises(error):
                bracket(w)
            assert kernel == products == []
    # the bracket that perfbench's tracer test pins at two products
    sig = Signature(2, 1)
    u = Multivector(sig, Field.COMPLEX, {1: 1, 2: 2, 3: 1})
    v = Multivector(sig, Field.COMPLEX, {0: 1, 4: 1})
    assert routes(u, v) == two_products
    # 2 * l1(u) * l1(v) * D against 2**53 at n = 6 (D = 8): v's l1 is 64,
    # u's is 63 + c, so c = 2**43 - 63 puts it at 2**53 exactly, and each
    # product at 2**52, still on the matrix path
    sig = Signature(3, 3)
    v = Multivector(sig, Field.REAL, {m: 1 for m in sig.blades()})
    for c, route in ((2 ** 43 - 64, one_pass),
                     (2 ** 43 - 63, [([0, 0], 2), ([0, 0], 2)])):
        u = Multivector(sig, Field.REAL, {m: c if m == 5 else 1 for m in sig.blades()})
        assert routes(u, v) == route, c
        assert_bits_match_signed_pair_sums(u, v)


def test_integer_l1_is_exact_on_both_sides_of_2_53():
    # below 2**53 the float sum is exact; from 2**53 on the int sum is
    # returned, here where the float sum would round 2**53 + 1 to 2**53
    for values, want in (
        ([complex(2 ** 52, 2 ** 52 - 1)], 2 ** 53 - 1),
        ([complex(2 ** 52, -2 ** 52)], 2 ** 53),
        ([complex(2 ** 53, 1), complex(-1, 0)], 2 ** 53 + 2),
    ):
        got = _integer_l1(values)
        assert type(got) is int and got == want
    assert _integer_l1([complex(1, 0.5), complex(2, 0)]) is None


def matrix_kernel_cases(rng: random.Random, sig: Signature):
    """Integer operand pairs (term dicts) for the matrix kernel: filled to
    10 % up to 100 %, each operand on one x-group only, and single blades;
    complex, real-valued, and real-valued with every imaginary part -0.0."""
    masks = list(sig.blades())
    xs = _matrix.matrix_rep(sig)[0]

    def terms(support, imag):
        return {m: complex(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3) * imag)
                for m in support}

    def x_group():
        x = rng.choice(xs)
        return [m for m in masks if xs[m] == x]

    supports = [[rng.sample(masks, max(1, len(masks) * fill // 10)) for _ in "uv"]
                for fill in (1, 4, 7, 10)]
    supports += [[x_group(), x_group()] for _ in range(2)]
    supports += [[[rng.choice(masks)], [rng.choice(masks)]] for _ in range(3)]
    for su, sv in supports:
        yield terms(su, 1), terms(sv, 1)
        yield terms(su, 0), terms(sv, 0)
        yield ({m: -c for m, c in terms(su, 0).items()},
               {m: -c for m, c in terms(sv, 0).items()})


@pytest.mark.parametrize("n", range(1, 10))
def test_matrix_kernel_matches_pair_loop_bits(n):
    # The kernel called directly, whatever the gate would pick: at every p
    # for n <= 7 (at n = 7, 8 x 8 blocks whose top generator squares to +1
    # or -1) and at one seeded p from 8 on.  Its product (sign 0) is the
    # pair loop's uv, and its brackets (sign -1 and +1) the pair loop's uv
    # and vu combined as _combine does.  All sums are exact integers, so
    # the bits, the term order and every +0.0 must agree.
    rng = random.Random(100 + n)
    for p in range(n + 1) if n <= 7 else [rng.randint(0, n)]:
        sig = Signature(p, n - p)
        for ta, tb in matrix_kernel_cases(rng, sig):
            uv, vu = (Multivector._raw(sig, Field.COMPLEX, _pair_product(sig, a, b))
                      for a, b in ((ta, tb), (tb, ta)))
            for sign, want in ((0, uv), (-1, uv - vu), (1, uv + vu)):
                got = Multivector._raw(sig, Field.COMPLEX,
                                       _matrix.matrix_product(sig, ta, tb, sign))
                assert _bits(got) == _bits(want), (sig, sign, ta, tb)
                assert "-0x0.0p+0" not in sum(_bits(got), ())


def test_readme_square_past_the_bound_still_rounds():
    # README: 134217729e1 squared is 18014398777917441, which a double
    # cannot hold; the product prints the rounded 18014398777917440
    u = parse_expression("134217729e1", Signature(1, 0))
    assert format_expression(u.geometric_product(u)) == "18014398777917440"


def test_product_identity_splits_into_both_brackets():
    # U V = ([U,V] + {U,V}) / 2 on random integer inputs
    rng = random.Random(7)
    for _ in range(50):
        u = random_mv(S22, rng)
        v = random_mv(S22, rng)
        lhs = u.geometric_product(v).scale(2)
        rhs = u.commutator(v) + u.anticommutator(v)
        assert lhs == rhs


def test_scalar_multiplication_forms():
    u = Multivector(S22, Field.COMPLEX, {0b1: 2, 0b110: -1})
    assert 2 * u == u.scale(2)
    assert u * 2 == u.scale(2)
    assert -u == u.scale(-1)
    assert (u - u).is_zero()
    for bad in (lambda: u * "x", lambda: "x" * u):
        with pytest.raises(TypeError):
            bad()


def test_jacobi_identity():
    rng = random.Random(11)
    for _ in range(30):
        u = random_mv(S22, rng)
        v = random_mv(S22, rng)
        w = random_mv(S22, rng)
        total = (u.commutator(v.commutator(w))
                 + v.commutator(w.commutator(u))
                 + w.commutator(u.commutator(v)))
        assert total.is_zero()


def test_associativity_on_random_elements():
    rng = random.Random(13)
    for _ in range(30):
        u = random_mv(S22, rng)
        v = random_mv(S22, rng)
        w = random_mv(S22, rng)
        assert (u * v) * w == u * (v * w)


# ----------------------------------------------------------------------
# projections

def test_grade_projection_examples():
    e1 = Multivector.basis_blade(S22, 0b1)
    assert e1.grade_project(0).is_zero()
    assert e1.grade_project(1) == e1
    with pytest.raises(RankOutOfRange):
        e1.grade_project(5)
    with pytest.raises(RankOutOfRange):
        e1.grade_project(-1)
    with pytest.raises(RankOutOfRange):  # not read as grade 1
        e1.grade_project(True)


def test_grade_projections_partition():
    rng = random.Random(17)
    for _ in range(20):
        u = random_mv(S22, rng)
        total = Multivector.zero(S22)
        for k in range(S22.n + 1):
            total = total + u.grade_project(k)
        assert total == u


def test_grade_projections_orthogonal():
    rng = random.Random(19)
    u = random_mv(S22, rng)
    for k in range(S22.n + 1):
        for l in range(S22.n + 1):
            if k != l:
                assert u.grade_project(k).grade_project(l).is_zero()


def test_parity_projection():
    sig = Signature(2, 0)
    u = Multivector(sig, Field.REAL, {0: 1, 0b01: 1, 0b11: 1})
    even = u.parity_project(True)
    assert set(even.terms) == {0, 0b11}
    assert u.parity_project(False) + even == u
    e123 = Multivector.basis_blade(Signature(3, 0), 0b111)
    assert e123.parity_project(True).is_zero()
    # only a bool picks the part: None used to give the odd part
    for bad in (None, 0, 1, "even"):
        with pytest.raises(TypeError, match="even must be a bool"):
            u.parity_project(bad)


def test_qtype_projection_collects_grades_mod_4():
    sig = Signature(4, 1)
    u = Multivector(sig, Field.COMPLEX,
                    {0: 1, 0b1111: 2, 0b1: 3, 0b11111: 4, 0b11: 5})
    p0 = u.qtype_project(0)
    assert set(p0.terms) == {0, 0b1111}
    p1 = u.qtype_project(1)
    assert set(p1.terms) == {0b1, 0b11111}
    assert u.qtype_project(2) == Multivector.basis_blade(sig, 0b11, 5)
    assert u.qtype_project(3).is_zero()
    for kbar in (4, 2.0, True):
        with pytest.raises(ValueError):
            u.qtype_project(kbar)


def test_qtype_projections_partition():
    rng = random.Random(23)
    u = random_mv(Signature(3, 2), rng)
    total = Multivector.zero(Signature(3, 2))
    for kbar in range(4):
        total = total + u.qtype_project(kbar)
    assert total == u


# ----------------------------------------------------------------------
# conjugation

def test_conjugate_agrees_with_reversal_oracle():
    rng = random.Random(29)
    for sig in (Signature(2, 2), Signature(3, 0), Signature(1, 3), Signature(4, 1)):
        for _ in range(20):
            u = random_mv(sig, rng)
            assert u.conjugate() == oracle_conjugate(u)


def test_conjugate_frozen_signs():
    sig = Signature(4, 0)
    for mask, sign in ((0, 1), (0b1, 1), (0b11, -1), (0b111, -1), (0b1111, 1)):
        u = Multivector.basis_blade(sig, mask)
        assert u.conjugate() == u.scale(sign)


def test_conjugate_is_involution():
    rng = random.Random(31)
    for _ in range(20):
        u = random_mv(S22, rng)
        assert u.conjugate().conjugate() == u


def test_conjugate_is_anti_automorphism():
    rng = random.Random(37)
    for _ in range(20):
        u = random_mv(S22, rng)
        v = random_mv(S22, rng)
        lhs = u.geometric_product(v).conjugate()
        rhs = v.conjugate().geometric_product(u.conjugate())
        assert lhs == rhs


def test_conjugate_conjugates_coefficients():
    u = Multivector.basis_blade(S22, 0b1, 1j)
    assert u.conjugate() == Multivector.basis_blade(S22, 0b1, -1j)


# ----------------------------------------------------------------------
# norms

def test_inf_norm_takes_per_term_rectangular_magnitude():
    u = Multivector(S22, Field.COMPLEX, {0: 3 - 4j, 0b1: 2})
    assert u.inf_norm() == 7.0
    assert Multivector.zero(S22).inf_norm() == 0.0


def test_is_zero_tolerance():
    u = Multivector.basis_blade(S22, 0b1, 1e-15)
    assert u.is_zero(1e-12)
    assert not u.is_zero()
    for tol in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            u.is_zero(tol)
    # True used to be read as 1.0
    for tol in (True, False):
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            u.is_zero(tol)


# ----------------------------------------------------------------------
# exponential

def test_exp_of_zero_is_identity():
    assert Multivector.zero(S22).exp() == Multivector.scalar(S22, 1)


def test_exp_scalar_matches_math_exp():
    u = Multivector.scalar(S22, 0.5)
    diff = u.exp() - Multivector.scalar(S22, math.exp(0.5))
    assert diff.inf_norm() < 1e-13


def test_exp_rotation_closed_form():
    # (e12)^2 = -1 in (2,0), so exp(t e12) = cos t + sin t e12
    sig = Signature(2, 0)
    for theta in (0.3, 0.7, 1.9, -2.5, 11.0):
        u = Multivector.basis_blade(sig, 0b11, theta, Field.REAL)
        expected = Multivector(sig, Field.REAL,
                               {0: math.cos(theta), 0b11: math.sin(theta)})
        assert (u.exp() - expected).inf_norm() < 1e-12


def test_exp_boost_closed_form():
    # (e12)^2 = +1 in (1,1): exp(t e12) = cosh t + sinh t e12
    sig = Signature(1, 1)
    u = Multivector.basis_blade(sig, 0b11, 0.8, Field.REAL)
    expected = Multivector(sig, Field.REAL,
                           {0: math.cosh(0.8), 0b11: math.sinh(0.8)})
    assert (u.exp() - expected).inf_norm() < 1e-13


def test_exp_matches_closed_forms_on_real_basis_elements():
    # e = unit * blade has e**2 = +-1, so exp(t e) is cosh t + e sinh t or
    # cos t + e sin t, and exp(t unit) on the scalar blade; t = 5 takes
    # three halvings
    for sig, step in ((Signature(2, 2), 1), (Signature(3, 1), 1), (Signature(1, 3), 1),
                      (Signature(4, 4), 1), (Signature(6, 6), 37)):
        for m in range(0, sig.blade_count, step):
            square = oracle_sign(m, m, sig)[0]
            for unit, field in ((1, Field.REAL), (1j, Field.COMPLEX)):
                for theta in (0.3, 1.7, 5.0):
                    if m == 0:
                        want = {0: cmath.exp(theta * unit)}
                    elif square * unit * unit == 1:
                        want = {0: math.cosh(theta), m: unit * math.sinh(theta)}
                    else:
                        want = {0: math.cos(theta), m: unit * math.sin(theta)}
                    got = Multivector.basis_blade(sig, m, theta * unit, field).exp()
                    assert set(got.terms) <= set(want), (sig, m, unit, theta)
                    scale = max(map(abs, want.values()))
                    err = max(abs(got.terms.get(k, 0) - c) for k, c in want.items())
                    assert err <= 1e-13 * scale, (sig, m, unit, theta, err)


def test_exp_agrees_with_complex_exponential_on_scalars():
    z = 0.3 + 1.1j
    u = Multivector.scalar(S22, z)
    expected = Multivector.scalar(S22, cmath.exp(z))
    assert (u.exp() - expected).inf_norm() < 1e-13


def test_exp_additivity_for_commuting_arguments():
    sig = Signature(2, 0)
    a = Multivector.basis_blade(sig, 0b11, 0.4, Field.REAL)
    b = Multivector.basis_blade(sig, 0b11, 0.9, Field.REAL)
    lhs = a.exp().geometric_product(b.exp())
    rhs = (a + b).exp()
    assert (lhs - rhs).inf_norm() < 1e-12


def test_exp_convergence_failure():
    u = Multivector.scalar(S22, 0.9)
    with pytest.raises(ConvergenceFailure):
        u.exp(eps=1e-14, max_terms=2)


def test_exp_refuses_argument_beyond_double_precision():
    sig = Signature(2, 0)
    for coeff in (10 ** 17, 10 ** 21):
        u = Multivector.basis_blade(sig, 0b11, coeff, Field.REAL)
        with pytest.raises(ConvergenceFailure):
            u.exp()


def test_exp_refuses_past_51_halvings_without_overflowing():
    # 2^51 takes 51 halvings, and its squarings overflow; the next double up
    # needs 52, which leave no correct digit.  1e308 would need 1024
    # halvings, and 1e308+1e308j has an inf-norm that overflows to inf.
    sig = Signature(1, 0)
    with pytest.raises(ValueError, match="^arithmetic result overflows a double$"):
        Multivector.scalar(sig, 2.0 ** 51).exp()
    for value in (math.nextafter(2.0 ** 51, math.inf), 1e308, 1e308 + 1e308j):
        with pytest.raises(ConvergenceFailure, match="52 or more halvings"):
            Multivector.scalar(sig, value).exp()


def test_exp_parameter_validation():
    u = Multivector.scalar(S22, 0.5)
    with pytest.raises(ValueError):
        u.exp(eps=0.0)
    with pytest.raises(ValueError):
        u.exp(max_terms=0)


def test_exp_refuses_non_integer_max_terms():
    # a float count used to pass validation and fail inside range()
    u = Multivector.scalar(S22, 0.5)
    with pytest.raises(TypeError, match="max_terms must be an integer"):
        u.exp(max_terms=2.5)
    # a bool is not counted as 1 or 0
    with pytest.raises(TypeError, match="max_terms must be an integer, not bool"):
        u.exp(max_terms=True)


def test_exp_refuses_non_finite_eps():
    # an infinite eps used to stop the series after one term: exp(e12) came
    # back as 1 + e12 in Cl(2,0)
    u = Multivector.basis_blade(Signature(2, 0), 0b11, 1, Field.REAL)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError):
            u.exp(eps=eps)
    # a bool is not read as 1.0
    with pytest.raises(TypeError, match="eps must be a real number, not bool"):
        u.exp(eps=True)


def test_exp_series_makes_no_product_and_one_squaring_per_halving(monkeypatch):
    calls = []
    product = Multivector.geometric_product

    def counted(a, b):
        calls.append(a is b)
        return product(a, b)

    monkeypatch.setattr(Multivector, "geometric_product", counted)
    sig = Signature(1, 1)
    u = Multivector(sig, Field.REAL, {0b01: 1, 0b10: 1})  # u*u = 0
    # series 1 + u, then the zero term u*u/2 stops it, with no public product
    assert u.exp() == Multivector(sig, Field.REAL, {0: 1, 0b01: 1, 0b10: 1})
    assert calls == []
    # inf-norm 4: two halvings, the same two series terms, two squarings
    assert u.scale(4).exp() == Multivector(sig, Field.REAL, {0: 1, 0b01: 4, 0b10: 4})
    assert calls == [True, True]
    calls.clear()
    # inf-norm 2.5: two halvings, and the series runs to many terms
    w = Multivector(S22, Field.COMPLEX, {0b11: 0.7, 0b1100: 0.4j, 0b0110: -2.5})
    w.exp()
    assert calls == [True, True]


def reference_exp(x: Multivector, eps: float = 1e-14, max_terms: int = 200,
                  product=Multivector.geometric_product) -> Multivector:
    """exp as a series of products, public ones unless ``product`` is
    given: term = product(term, u).scale(1/m)."""
    u, halvings = x, 0
    while u.inf_norm() > 1.0:
        u = u.scale(0.5)
        halvings += 1
    acc = {0: 1 + 0j}
    term = Multivector.scalar(x.sig, 1, x.field)
    for m in range(1, max_terms + 1):
        term = product(term, u).scale(1.0 / m)
        for k, c in term.terms.items():
            s = acc.get(k, 0j) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        acc_norm = max((abs(c.real) + abs(c.imag) for c in acc.values()), default=0.0)
        if term.inf_norm() < eps * (1.0 + acc_norm):
            break
    else:
        raise ConvergenceFailure("reference series not converged")
    result = Multivector(x.sig, x.field, sorted(acc.items()))
    for _ in range(halvings):
        result = product(result, result)
    return result


def _bits(u: Multivector) -> list:
    return [(m, c.real.hex(), c.imag.hex()) for m, c in u.terms.items()]


def _span_mask_sets(rng: random.Random, n: int) -> list:
    """Mask sets (n >= 2) whose XOR span a random draw rarely gives: linearly
    dependent masks {a, b, a ^ b} with and without the scalar mask 0, masks
    from the span of (n + 1) // 2 masks (a rank below n), n independent
    masks, and none at all."""
    a, b = rng.sample(range(1, 1 << n), 2)
    gens = [rng.randrange(1 << n) for _ in range((n + 1) // 2)]
    low_rank = {0}
    for _ in range(6):
        low_rank.add(rng.choice(gens) ^ rng.choice(gens) ^ rng.choice(gens))
    # leading bits 0 .. n-1, so independent, with random lower bits
    independent = [(1 << k) | rng.randrange(1 << k) for k in range(n)]
    return [[a, b, a ^ b], [0, a, b, a ^ b], sorted(low_rank), independent, []]


def test_xor_span_is_the_sorted_xor_closure_numbered_linearly():
    rng = random.Random(20261021)
    for n in range(1, 13):
        sets = [rng.sample(range(1 << n), rng.randint(0, min(1 << n, 9)))
                for _ in range(20)]
        for masks in sets + (_span_mask_sets(rng, n) if n > 1 else []):
            closure = {0}
            for m in masks:
                closure |= {s ^ m for s in closure}
            span = _xor_span(masks)
            assert span == sorted(closure), masks
            for i in range(len(span)):
                j = rng.randrange(len(span))
                assert span[i] ^ span[j] == span[i ^ j], masks


def test_exp_bits_match_series_of_public_products():
    rng = random.Random(20240611)

    def check(n, max_size, masks=None, scale=1):
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        field = rng.choice((Field.REAL, Field.COMPLEX))
        kind = rng.choice(("float", "real int", "imaginary int"))
        if field is Field.REAL and kind == "imaginary int":
            kind = "real int"
        if masks is None:
            masks = rng.sample(range(1 << n), rng.randint(0, min(1 << n, max_size)))
        terms = {}
        for mask in masks:
            if kind == "real int":
                terms[mask] = rng.randint(-3, 3)
            elif kind == "imaginary int":
                terms[mask] = complex(0, rng.randint(-3, 3))
            elif field is Field.REAL:
                terms[mask] = rng.uniform(-2.0, 2.0)
            else:
                terms[mask] = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        u = Multivector(sig, field, {m: scale * c for m, c in terms.items()})
        assert _bits(u.exp()) == _bits(reference_exp(u)), (sig, field, terms)

    for _ in range(240):
        check(rng.randint(1, 7), 10)
    # sparse at n = 8, 10 and 12, where the 2^n slots far outnumber the terms
    for n in (8, 8, 10, 10, 12, 12):
        check(n, 8)
    # 2^-3 keeps short the series of 12 independent masks, which fills all
    # 4096 blades
    for n in (4, 8, 12):
        for masks in _span_mask_sets(rng, n):
            check(n, None, masks, 0.125)


def test_exp_bits_on_real_values_match_series_of_signed_pair_sums():
    # Real-valued operands run exp and every product as floats, so a series
    # of public products would take the same path; this reference multiplies
    # in complex arithmetic through signed_pair_sum instead.
    rng = random.Random(20261020)

    def pair_product(a, b):
        return Multivector(a.sig, a.field, signed_pair_sum(a, b))

    def operand(n, max_size, masks=None, scale=1):
        p = rng.randint(0, n)
        field = rng.choice((Field.REAL, Field.COMPLEX))
        if masks is None:
            masks = rng.sample(range(1 << n), rng.randint(1, min(1 << n, max_size)))
        u = Multivector(Signature(p, n - p), field,
                        {m: scale * rng.uniform(-2.0, 2.0) for m in masks})
        # in a COMPLEX operand, -0.0 imaginary parts too
        return rng.choice((u, -u, u.conjugate())) if field is Field.COMPLEX else u

    operands = [operand(n, 10) for n in range(1, 8) for _ in range(8)]
    # sparse at n = 8, 10 and 12, where exp's slots are the span's only
    operands += [operand(n, k) for n in (8, 10, 12) for k in (2, 4, 8)]
    operands += [operand(n, None, masks, 0.125) for n in (4, 8, 12)
                 for masks in _span_mask_sets(rng, n)]
    assert {u.field for u in operands} == {Field.REAL, Field.COMPLEX}
    for u in operands:
        got = u.exp()
        assert _bits(got) == _bits(reference_exp(u, product=pair_product)), u
        assert all(type(c) is complex for c in got.terms.values())


def test_exp_allocates_no_slot_per_blade_for_a_sparse_argument():
    # The series' slots are the span's: 4 for two masks, where a list of
    # one slot per blade at n = 12 takes 32 KiB.  Inf-norm 0.75, so no
    # halving calls a squaring product.
    u = Multivector(Signature(6, 6), Field.COMPLEX, {0b11: 0.5, 0b101 << 6: 0.75j})
    want = u.exp()  # builds the sign table
    tracemalloc.start()
    try:
        got = u.exp()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 16 * 1024, peak


def _exp_outcome(f, *args):
    try:
        return _bits(f(*args))
    except ConvergenceFailure:
        return ConvergenceFailure


def test_exp_stopping_rule_matches_series_that_reads_every_norm():
    # reference_exp reads the partial sum's norm after every term, so equal
    # bits and equal failures pin exp's bound-first stopping test, not only
    # its default path.
    rng = random.Random(20261018)

    def sparse(n):
        p = rng.randint(0, n)
        masks = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 8)))
        terms = {m: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for m in masks}
        return Multivector(Signature(p, n - p), Field.COMPLEX, terms)

    operands = [sparse(rng.randint(1, 6)) for _ in range(60)]
    # dense at n = 7: 128 rows of 128 entries, more than the row cache keeps
    assert (1 << 7) ** 2 > _ROW_CACHE_ENTRIES
    dense = {m: rng.uniform(-1.0, 1.0) for m in range(1 << 7)}
    operands.append(Multivector(Signature(4, 3), Field.REAL, dense))
    # sparse at n = 8, 10 and 12, where the 2^n slots far outnumber the terms
    operands += [sparse(n) for n in (8, 10, 12)]
    failures = 0
    for u in operands:
        for eps in (1e-1, 1e-6, 1e-14):
            assert _bits(u.exp(eps)) == _bits(reference_exp(u, eps)), (u, eps)
        for max_terms in range(1, 7):
            want = _exp_outcome(reference_exp, u, 1e-6, max_terms)
            assert _exp_outcome(u.exp, 1e-6, max_terms) == want, (u, max_terms)
            failures += want is ConvergenceFailure
    assert 0 < failures < 6 * len(operands)


def _series_norms(u: Multivector, count: int) -> list:
    """(largest abs, inf-norm) of each of the first ``count`` series terms
    of exp(u), u of inf-norm at most 1, with the partial sum's inf-norm
    after it, from public products."""
    one = Multivector.scalar(u.sig, 1, u.field)
    norms, term, acc = [], one, one
    for m in range(1, count + 1):
        term = term.geometric_product(u).scale(1.0 / m)
        acc = acc + term
        norms.append((max(map(abs, term.terms.values())), term.inf_norm(),
                       acc.inf_norm()))
    return norms


def test_exp_stopping_rule_reads_the_inf_norm_of_complex_terms():
    # exp bounds a complex term's inf-norm T (|re| + |im|) by its largest
    # abs A: A <= T <= sqrt(2) * A.  Each eps here puts some term's A below
    # eps * (1 + partial-sum norm) and its T not, so the series stops there
    # only if it skips reading T; equal bits with a series that reads every
    # norm pin that read.
    rng = random.Random(20261019)
    c = 0.5 + 0.5j
    operands = [Multivector(Signature(1, 0), Field.COMPLEX, {0: c}),
                Multivector(Signature(1, 0), Field.COMPLEX, {1: c}),
                Multivector(Signature(0, 1), Field.COMPLEX, {1: c})]
    for n in (2, 3, 4, 6):
        masks = rng.sample(range(1 << n), rng.randint(1, 4))
        terms = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in masks}
        u = Multivector(Signature(n // 2, n - n // 2), Field.COMPLEX, terms)
        operands.append(u.scale(1 / u.inf_norm()))
    cases = []
    for u in operands:
        norms = _series_norms(u, 6)
        for m, (a, t, acc) in enumerate(norms):
            eps = (a + t) / 2 / (1 + acc)
            if (a < eps * (1 + acc) <= t
                    and all(tk >= eps * (1 + ak) for _, tk, ak in norms[:m])):
                cases.append((u, eps))
    assert len(cases) >= 20
    # The bound grows by sqrt(2) * A, not by A: for u = c, the partial sum
    # after two terms, 1.5 + 0.75i, has norm 2.25, while 1 + A_1 + A_2 is
    # 1.957, so at eps 0.08 a bound grown by A alone would skip the second
    # term (A = T = 0.25 >= 0.08 * 2.957), at which the series stops
    # (0.25 < 0.08 * 3.25).
    cases += [(operands[0], 0.08), (operands[1], 0.08), (operands[2], 0.08)]
    for u, eps in cases:
        assert _bits(u.exp(eps)) == _bits(reference_exp(u, eps)), (u, eps)


def test_exp_series_overflow_bound_holds_at_max_generators():
    # exp's series has no overflow check; its docstring bounds every value
    # in it by e^(sqrt(D * 2^n) + ln(sqrt(2) * 2^n)), D = 2^ceil(n/2), for an
    # argument halved to |c| <= 1.  That bound must stay below the largest
    # double at every supported n: it does at 12 (e^520.7) and not at 13,
    # so raising MAX_GENERATORS fails here until the series is reviewed.
    def exponent(n):
        return math.sqrt(2 ** math.ceil(n / 2) * 2 ** n) + math.log(math.sqrt(2) * 2 ** n)

    largest = math.log(sys.float_info.max)
    assert exponent(MAX_GENERATORS) < largest
    assert exponent(13) > largest


# ----------------------------------------------------------------------
# hypothesis properties

_coeff = st.integers(-4, 4)


@st.composite
def mv_terms(draw):
    masks = draw(st.lists(st.integers(0, 15), max_size=6))
    return {m: complex(draw(_coeff), draw(_coeff)) for m in masks}


@settings(max_examples=150)
@given(mv_terms(), mv_terms())
def test_product_distributes_over_addition(t1, t2):
    u = Multivector(S22, Field.COMPLEX, t1)
    v = Multivector(S22, Field.COMPLEX, t2)
    w = Multivector.basis_blade(S22, 0b101, 1 - 2j)
    assert (u + v).geometric_product(w) == \
        u.geometric_product(w) + v.geometric_product(w)


@settings(max_examples=150)
@given(mv_terms())
def test_conjugate_oracle_property(terms):
    u = Multivector(S22, Field.COMPLEX, terms)
    assert u.conjugate() == oracle_conjugate(u)


@settings(max_examples=100)
@given(mv_terms(), mv_terms())
def test_commutator_antisymmetric(t1, t2):
    u = Multivector(S22, Field.COMPLEX, t1)
    v = Multivector(S22, Field.COMPLEX, t2)
    assert u.commutator(v) == -v.commutator(u)
    assert u.anticommutator(v) == v.anticommutator(u)


@st.composite
def float_operands(draw):
    """Signature at n = 3..6 and two lists of float terms on distinct
    blades."""
    n = draw(st.integers(3, 6))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)

    def terms():
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                              max_size=8, unique=True))
        return [(m, complex(draw(part), draw(part))) for m in masks]

    return sig, terms(), terms()


_RESULTS = {
    "gp": lambda u, v: u.geometric_product(v),
    "comm": lambda u, v: u.commutator(v),
    "anticomm": lambda u, v: u.anticommutator(v),
    "exp": lambda u, v: u.exp(),
}


@settings(max_examples=60, deadline=None)
@given(float_operands())
def test_results_do_not_depend_on_term_order(operands):
    sig, t1, t2 = operands
    u, v = (Multivector(sig, Field.COMPLEX, t) for t in (t1, t2))
    u_rev, v_rev = (Multivector(sig, Field.COMPLEX, t[::-1]) for t in (t1, t2))
    assert u == u_rev and v == v_rev
    for name, fn in _RESULTS.items():
        result = fn(u, v)
        assert result == fn(u_rev, v_rev), name
        assert list(result.terms) == sorted(result.terms), name
        assert all(result.terms.values()), name


_double = st.floats(-1e308, 1e308)


@st.composite
def wide_mv_terms(draw):
    masks = draw(st.lists(st.integers(0, 15), max_size=4))
    return {m: complex(draw(_double), draw(_double)) for m in masks}


_ARITHMETIC = {
    "gp": lambda u, v, x: u.geometric_product(v),
    "comm": lambda u, v, x: u.commutator(v),
    "anticomm": lambda u, v, x: u.anticommutator(v),
    "add": lambda u, v, x: u + v,
    "sub": lambda u, v, x: u - v,
    "scale": lambda u, v, x: u.scale(x),
}


@settings(max_examples=200)
@given(wide_mv_terms(), wide_mv_terms(), st.sampled_from(sorted(_ARITHMETIC)),
       _double)
def test_arithmetic_results_finite_or_refused(t1, t2, op, x):
    u = Multivector(S22, Field.COMPLEX, t1)
    v = Multivector(S22, Field.COMPLEX, t2)
    try:
        result = _ARITHMETIC[op](u, v, x)
    except ValueError:
        return
    assert all(cmath.isfinite(c) for c in result.terms.values())


# ----------------------------------------------------------------------
# exactness bound of integer arithmetic

def _l1(terms: dict) -> int:
    return sum(abs(re) + abs(im) for re, im in terms.values())


def _int_product(t1: dict, t2: dict, sig: Signature) -> dict:
    """Exact product on Gaussian-integer (re, im) coefficients."""
    out: dict = {}
    for a, (ar, ai) in t1.items():
        for b, (br, bi) in t2.items():
            s, m = oracle_sign(a, b, sig)
            re, im = out.get(m, (0, 0))
            out[m] = (re + s * (ar * br - ai * bi), im + s * (ar * bi + ai * br))
    return out


@st.composite
def bound_operands(draw):
    """Signature at n = 1..4 and two Gaussian-integer term dicts whose
    l1 product falls on either side of 2^52 and 2^53.  The parts come from
    a seeded generator: hypothesis would favour small integers, which stay
    exact at any size."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, n))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    scale = 2.0 ** rnd.uniform(24.0, 28.0)
    terms = []
    for imag in (rnd.random() < 0.5, rnd.random() < 0.5):
        terms.append({rnd.randrange(2 ** n): (round(rnd.uniform(-scale, scale)),
                                              round(imag * rnd.uniform(-scale, scale)))
                      for _ in range(rnd.randint(1, 3))})
    return Signature(p, n - p), terms[0], terms[1]


@settings(max_examples=300, deadline=None)
@given(bound_operands())
def test_integer_arithmetic_exact_below_stated_bound(operands):
    # Products are exact when l1(a) l1(b) < 2^53, brackets when it is below
    # 2^52: every partial sum of a coefficient is then an integer below 2^53.
    # Past the bound each coefficient is still within the usual rounding
    # bound of a sum of at most 2^n pair terms.
    sig, t1, t2 = operands
    u, v = (Multivector(sig, Field.COMPLEX, {m: complex(*c) for m, c in t.items()})
            for t in (t1, t2))
    uv, vu = _int_product(t1, t2, sig), _int_product(t2, t1, sig)

    def bracket(sign: int) -> dict:
        return {m: tuple(x + sign * y for x, y in zip(uv.get(m, (0, 0)), vu.get(m, (0, 0))))
                for m in {*uv, *vu}}

    exact = {
        "gp": (u.geometric_product(v), uv, 2 ** 53),
        "comm": (u.commutator(v), bracket(-1), 2 ** 52),
        "anticomm": (u.anticommutator(v), bracket(1), 2 ** 52),
    }
    l1 = _l1(t1) * _l1(t2)
    for op, (got, want, bound) in exact.items():
        for m in {*got.terms, *want}:
            c, (re, im) = got.terms.get(m, 0j), want.get(m, (0, 0))
            if l1 < bound:
                assert (c.real, c.imag) == (re, im), (op, m)
            else:
                slack = (2 ** sig.n + 3) * 2.0 ** -52 * l1
                assert abs(c.real - re) <= slack and abs(c.imag - im) <= slack, (op, m)


def test_integer_product_bound_is_tight():
    # squares of single terms: the l1 product is the coefficient itself
    sig = Signature(1, 0)

    def square(c: int) -> float:
        u = Multivector.basis_blade(sig, 1, c)
        return u.geometric_product(u).coefficient(0).real

    assert 94906265 ** 2 < 2 ** 53 < 94906267 ** 2
    assert square(94906265) == 94906265 ** 2
    assert square(94906267) != 94906267 ** 2  # odd and past 2^53
    assert square(134217729) == 18014398777917440 != 134217729 ** 2  # README
