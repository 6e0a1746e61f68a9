"""Type layer tests.

The main-type composition rule is checked against the rank-residue branch
formula it abbreviates, and the coefficient-class transfer against explicit
complex representatives.  Both oracles predate the implementation values.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quatype.blades import Signature
from quatype.multivector import Field, Multivector
from quatype.qtype import (
    CoeffClass,
    EMPTY_TYPE,
    FULL_TYPE,
    OpKind,
    QType,
    SubspacePattern,
    TYPE_ORDER,
    coeff_le,
    detect_qtype,
    emit_table,
    is_closed,
    main_compose,
    pattern_compose,
    pattern_of,
    qtype_compose,
)

S22 = Signature(2, 2)


def residue_oracle(op: OpKind, a: int, b: int) -> int:
    # branch formula on representative ranks: hi-lo, +2 flipped by the
    # (even, odd) case, reduced mod 4
    hi, lo = max(a, b), min(a, b)
    even_odd = hi % 2 == 0 and lo % 2 == 1
    if op is OpKind.COMMUTATOR:
        s = hi - lo if even_odd else hi - lo + 2
    else:
        s = hi - lo + 2 if even_odd else hi - lo
    return s % 4


def test_main_compose_matches_residue_oracle():
    for a in range(4):
        for b in range(4):
            for op in (OpKind.COMMUTATOR, OpKind.ANTICOMMUTATOR):
                assert main_compose(op, a, b) == residue_oracle(op, a, b)


def test_main_compose_closed_forms():
    for a in range(4):
        for b in range(4):
            assert main_compose(OpKind.ANTICOMMUTATOR, a, b) == a ^ b
            assert main_compose(OpKind.COMMUTATOR, a, b) == a ^ b ^ 2
    with pytest.raises(ValueError):
        main_compose(OpKind.GEOMETRIC, 0, 0)
    with pytest.raises(ValueError):
        main_compose(OpKind.COMMUTATOR, 4, 0)


def test_main_units():
    # anticommutator unit is type 0, commutator unit is type 2
    for k in range(4):
        assert main_compose(OpKind.ANTICOMMUTATOR, 0, k) == k
        assert main_compose(OpKind.COMMUTATOR, 2, k) == k


# ----------------------------------------------------------------------
# coefficient classes

def _class_of(z: complex) -> CoeffClass:
    cls = CoeffClass.ZERO
    if z.real:
        cls |= CoeffClass.REAL
    if z.imag:
        cls |= CoeffClass.IMAGINARY
    return cls


_REPRESENTATIVES = {
    CoeffClass.ZERO: (0j,),
    CoeffClass.REAL: (1 + 0j, -2 + 0j),
    CoeffClass.IMAGINARY: (1j, -3j),
    CoeffClass.COMPLEX: (1 + 1j, -2 + 5j),
}


def _product_class(c1: CoeffClass, c2: CoeffClass) -> CoeffClass:
    # the lattice product as pattern_compose applies it: single-type
    # patterns on type 0, which the anticommutator sends to 0 ^ 0 = 0
    p1 = SubspacePattern((c1, 0, 0, 0))
    p2 = SubspacePattern((c2, 0, 0, 0))
    return pattern_compose(OpKind.ANTICOMMUTATOR, p1, p2)[0]


def test_coeff_mul_against_complex_representatives():
    for c1, reps1 in _REPRESENTATIVES.items():
        for c2, reps2 in _REPRESENTATIVES.items():
            allowed = _product_class(c1, c2)
            for z1 in reps1:
                for z2 in reps2:
                    assert coeff_le(_class_of(z1 * z2), allowed)


def test_coeff_mul_frozen_table():
    R, I, C, Z = (CoeffClass.REAL, CoeffClass.IMAGINARY,
                  CoeffClass.COMPLEX, CoeffClass.ZERO)
    assert _product_class(R, R) is R
    assert _product_class(R, I) is I
    assert _product_class(I, I) is R
    assert _product_class(C, R) is C
    assert _product_class(C, I) is C
    assert _product_class(C, C) is C
    assert _product_class(Z, C) is Z
    assert _product_class(Z, Z) is Z


def test_coeff_join_and_order():
    R, I, C, Z = (CoeffClass.REAL, CoeffClass.IMAGINARY,
                  CoeffClass.COMPLEX, CoeffClass.ZERO)
    assert SubspacePattern((R, Z, I, Z)).join(SubspacePattern((I, I, Z, Z))) \
        == SubspacePattern((C, I, I, Z))
    assert coeff_le(Z, R) and coeff_le(R, C) and coeff_le(I, C)
    assert not coeff_le(R, I)
    assert not coeff_le(C, R)


# ----------------------------------------------------------------------
# QType values

def test_qtype_construction_and_str():
    assert str(QType.of(0, 2)) == "02"
    assert str(QType.of(2, 0)) == "02"
    assert str(EMPTY_TYPE) == ""
    assert str(FULL_TYPE) == "0123"
    assert QType.from_string("13") == QType.of(1, 3)
    assert QType.from_string("") is not None and not QType.from_string("")
    with pytest.raises(ValueError):
        QType.of(4)
    with pytest.raises(ValueError):
        QType.from_string("05")
    # a bool or float equals an int in range but is refused, not read as it
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="must be 0..3"):
            QType.of(bad)
        with pytest.raises(ValueError, match="must be 0..3"):
            main_compose(OpKind.COMMUTATOR, bad, 0)
        with pytest.raises(ValueError, match="must be 0..3"):
            main_compose(OpKind.ANTICOMMUTATOR, 0, bad)
        with pytest.raises(ValueError, match="out of range"):
            QType(bad)
        assert bad not in QType.of(1)
    assert "1" not in FULL_TYPE and None not in FULL_TYPE


def test_qtype_from_string_refuses_non_ascii_digits():
    # int() reads "\u0663" (ARABIC-INDIC DIGIT THREE) as 3
    for text in ("\u0663", "0\u0663", "\uff12", "1 ", "-1", "x"):
        with pytest.raises(ValueError, match="must be 0..3"):
            QType.from_string(text)


def test_qtype_set_behavior():
    t = QType.of(1, 2)
    assert 1 in t and 2 in t and 0 not in t
    assert t.members == (1, 2)
    assert list(t) == [1, 2]
    assert t <= FULL_TYPE
    assert not (FULL_TYPE <= t)
    assert (t | QType.of(0)) == QType.of(0, 1, 2)
    assert (t & QType.of(2, 3)) == QType.of(2)
    assert bool(EMPTY_TYPE) is False


def test_type_order_is_the_fifteen_nonempty_types():
    assert len(TYPE_ORDER) == 15
    assert [str(t) for t in TYPE_ORDER[:4]] == ["0", "1", "2", "3"]
    assert str(TYPE_ORDER[-1]) == "0123"
    assert len({t.mask for t in TYPE_ORDER}) == 15
    assert EMPTY_TYPE not in TYPE_ORDER


# ----------------------------------------------------------------------
# type composition

def test_compose_empty_absorbs():
    for op in OpKind:
        assert qtype_compose(op, EMPTY_TYPE, FULL_TYPE) == EMPTY_TYPE
        assert qtype_compose(op, FULL_TYPE, EMPTY_TYPE) == EMPTY_TYPE


def test_compose_frozen_cells():
    t0, t1 = QType.of(0), QType.of(1)
    t02 = QType.of(0, 2)
    assert qtype_compose(OpKind.COMMUTATOR, t0, t0) == QType.of(2)
    assert qtype_compose(OpKind.ANTICOMMUTATOR, t0, t0) == t0
    assert qtype_compose(OpKind.GEOMETRIC, t0, t0) == t02
    assert qtype_compose(OpKind.GEOMETRIC, t0, t1) == QType.of(1, 3)
    assert qtype_compose(OpKind.ANTICOMMUTATOR, t02, t02) == t02
    assert qtype_compose(OpKind.COMMUTATOR, t02, t02) == t02


def test_compose_product_is_union_of_brackets():
    for t1 in TYPE_ORDER:
        for t2 in TYPE_ORDER:
            union = (qtype_compose(OpKind.COMMUTATOR, t1, t2)
                     | qtype_compose(OpKind.ANTICOMMUTATOR, t1, t2))
            assert qtype_compose(OpKind.GEOMETRIC, t1, t2) == union


def test_compose_monotone():
    small, big = QType.of(0), QType.of(0, 1)
    for op in OpKind:
        for other in TYPE_ORDER:
            assert qtype_compose(op, small, other) <= qtype_compose(op, big, other)


def test_emit_table_shape_and_cells():
    for op, corner, expected in (
        (OpKind.ANTICOMMUTATOR, (0, 0), "0"),
        (OpKind.COMMUTATOR, (0, 0), "2"),
        (OpKind.GEOMETRIC, (0, 0), "02"),
        (OpKind.GEOMETRIC, (0, 1), "13"),
        (OpKind.ANTICOMMUTATOR, (5, 5), "02"),  # (02,02) cell
    ):
        table = emit_table(op)
        assert len(table) == 15 and all(len(row) == 15 for row in table)
        i, j = corner
        assert str(table[i][j]) == expected
    assert str(TYPE_ORDER[5]) == "02"


def test_table_symmetry():
    # both brackets are symmetric at type level: |[U,V]| and |{U,V}| ignore order
    for op in OpKind:
        table = emit_table(op)
        for i in range(15):
            for j in range(15):
                assert table[i][j] == table[j][i]


# ----------------------------------------------------------------------
# subspace patterns

def test_pattern_from_parts_and_str():
    p = SubspacePattern.from_parts(real="02", imag="13")
    assert str(p) == "02+i13"
    assert str(SubspacePattern.from_parts(imag="01")) == "i01"
    assert str(SubspacePattern.from_parts(real="2")) == "2"
    assert str(SubspacePattern.from_parts()) == "empty"
    assert p[0] is CoeffClass.REAL
    assert p[1] is CoeffClass.IMAGINARY
    crossed = SubspacePattern.from_parts(real="02", imag="02")
    assert crossed[0] is CoeffClass.COMPLEX
    assert SubspacePattern((0, 3, CoeffClass.REAL, 2)) == \
        SubspacePattern.from_parts(real="12", imag="13")
    # one class per main type 0..3, no fewer and no more
    for classes in ((1, 1, 1), (1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="exactly four classes"):
            SubspacePattern(classes)


@pytest.mark.parametrize("bad", [4, -1, 3.0, True, "1", None])
def test_pattern_refuses_classes_outside_0_to_3(bad):
    # CoeffClass(4) is a pseudo-member that prints as empty, -1 became
    # COMPLEX, and 3.0 and True were taken as ints
    with pytest.raises(ValueError):
        SubspacePattern((bad, 0, 0, 0))
    if isinstance(bad, int) and not isinstance(bad, bool):
        # a digit string may name main types 0..3 only
        for part in ("real", "imag"):
            with pytest.raises(ValueError):
                SubspacePattern.from_parts(**{part: f"0{bad}"})


def test_pattern_matches_and_leakage():
    p = SubspacePattern.from_parts(real="02")
    u = Multivector(S22, Field.COMPLEX, {0: 2, 0b11: -3})
    assert p.matches(u, 0.0)
    assert p.leakage(u) == 0.0
    bad = u + Multivector.basis_blade(S22, 0b1, 0.5)
    assert not p.matches(bad, 0.0)
    assert p.leakage(bad) == 0.5
    assert p.matches(bad, 0.5)
    off_axis = Multivector(S22, Field.COMPLEX, {0: 1j})
    assert not p.matches(off_axis, 0.0)
    assert p.leakage(off_axis) == 1.0
    for tol in (float("nan"), float("inf")):  # inf would admit anything
        with pytest.raises(ValueError):
            p.matches(bad, tol)
    # True used to be read as 1.0 and admit the leak
    with pytest.raises(TypeError, match="tolerance must be a real number"):
        p.matches(bad, True)
    with pytest.raises(TypeError, match="tolerance must be a real number"):
        detect_qtype(bad, True)


def test_pattern_contains_and_join():
    small = SubspacePattern.from_parts(real="2")
    big = SubspacePattern.from_parts(real="23", imag="01")
    assert big.contains(small)
    assert not small.contains(big)
    assert big.contains(small.join(SubspacePattern.from_parts(real="3")))


def test_pattern_compose_spot_values():
    p = SubspacePattern.from_parts(real="2", imag="3")
    out = pattern_compose(OpKind.COMMUTATOR, p, p)
    # [2r,2r]->2r, [2r,3i]->3i, [3i,3i]->-(2r)
    assert out == SubspacePattern.from_parts(real="2", imag="3")
    q = SubspacePattern.from_parts(real="1")
    assert pattern_compose(OpKind.COMMUTATOR, q, q) == \
        SubspacePattern.from_parts(real="2")


def test_is_closed_positive_and_negative():
    assert is_closed(OpKind.GEOMETRIC, SubspacePattern.from_parts(real="02"))
    assert is_closed(OpKind.COMMUTATOR,
                     SubspacePattern.from_parts(real="2", imag="3"))
    assert is_closed(OpKind.COMMUTATOR,
                     SubspacePattern.from_parts(real="02", imag="13"))
    assert not is_closed(OpKind.COMMUTATOR, SubspacePattern.from_parts(real="1"))
    assert not is_closed(OpKind.ANTICOMMUTATOR,
                         SubspacePattern.from_parts(real="12"))


# ----------------------------------------------------------------------
# detection

def test_detect_qtype_basics():
    u = Multivector(S22, Field.COMPLEX, {0b1: 1, 0b11: 2})
    assert detect_qtype(u, 0.0) == QType.of(1, 2)
    assert detect_qtype(Multivector.zero(S22), 0.0) == EMPTY_TYPE
    with pytest.raises(ValueError):
        detect_qtype(u, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            detect_qtype(u, bad)
        with pytest.raises(ValueError):
            pattern_of(u, bad)


def test_detect_qtype_and_pattern_of_refuse_tol_of_one_or_more():
    # from tol 1 on every part is below tol * (1 + inf_norm), so any element
    # would read as the empty type and pattern
    u = Multivector(S22, Field.REAL, {0: 1.0, 0b11: 2.0})  # 1 + 2e12
    for tol in (1.0, 1.5, 2.0, 5.0):
        for read in (detect_qtype, pattern_of):
            with pytest.raises(ValueError, match="tolerance must be below 1"):
                read(u, tol)
    # at 0.5 the threshold is 1.5: the grade-2 part (2) stays, the scalar drops
    assert detect_qtype(u, 0.5) == QType.of(2)
    assert str(pattern_of(u, 0.5)) == "2"


def test_detect_qtype_relative_threshold():
    u = Multivector(S22, Field.COMPLEX, {0b1: 1.0, 0b11: 1e-14})
    assert detect_qtype(u, 0.0) == QType.of(1, 2)
    assert detect_qtype(u, 1e-12) == QType.of(1)
    # scaling u must not change the detected type
    assert detect_qtype(u.scale(1e6), 1e-12) == QType.of(1)


def test_detect_qtype_and_pattern_of_when_the_inf_norm_overflows():
    # |re| + |im| = 2e308 is past the largest double, though each part fits
    u = Multivector(S22, Field.COMPLEX, {0b1: 1e308 + 1e308j})
    for tol in (0.0, 5e-324, 1e-12, 0.4):
        assert detect_qtype(u, tol) == QType.of(1), tol
        assert str(pattern_of(u, tol)) == "1+i1", tol
    # each part is below 0.5 * (1 + 2e308), the sum is above it
    assert detect_qtype(u, 0.5) == QType.of(1)
    assert str(pattern_of(u, 0.5)) == "empty"
    # a smallest subnormal still counts at tol 0 only
    v = Multivector(S22, Field.COMPLEX, {0b1: 1e308 + 1e308j, 0b11: 5e-324j})
    assert detect_qtype(v, 0.0) == QType.of(1, 2)
    assert str(pattern_of(v, 0.0)) == "1+i12"
    assert detect_qtype(v, 1e-300) == QType.of(1)


def test_pattern_of_minimal():
    u = Multivector(S22, Field.COMPLEX, {0: 1j, 0b11: 2})
    p = pattern_of(u, 0.0)
    assert p[0] is CoeffClass.IMAGINARY
    assert p[2] is CoeffClass.REAL
    assert p[1] is CoeffClass.ZERO
    assert p.matches(u, 0.0)


# ----------------------------------------------------------------------
# the central soundness invariant

def _random_typed(sig, rng, qt):
    terms = {}
    for mask in sig.blades():
        if (bin(mask).count("1") & 3) in qt:
            terms[mask] = complex(rng.randint(-3, 3), rng.randint(-3, 3))
    return Multivector(sig, Field.COMPLEX, terms)


def test_detected_type_of_result_within_composed_cell():
    rng = random.Random(101)
    for _ in range(200):
        t1 = TYPE_ORDER[rng.randrange(15)]
        t2 = TYPE_ORDER[rng.randrange(15)]
        u = _random_typed(S22, rng, t1)
        v = _random_typed(S22, rng, t2)
        for op, res in (
            (OpKind.GEOMETRIC, u.geometric_product(v)),
            (OpKind.COMMUTATOR, u.commutator(v)),
            (OpKind.ANTICOMMUTATOR, u.anticommutator(v)),
        ):
            cell = qtype_compose(op, detect_qtype(u, 0.0), detect_qtype(v, 0.0))
            assert detect_qtype(res, 0.0) <= cell


@settings(max_examples=200)
@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 2 ** 31 - 1))
def test_pattern_compose_sound_on_samples(i, j, seed):
    rng = random.Random(seed)
    p1 = SubspacePattern.from_parts(real=str(TYPE_ORDER[i]))
    p2 = SubspacePattern.from_parts(imag=str(TYPE_ORDER[j]))
    u = _random_typed(S22, rng, TYPE_ORDER[i]).qtype_project(TYPE_ORDER[i].members[0])
    u = Multivector(S22, Field.COMPLEX,
                    {m: complex(c.real, 0) for m, c in
                     _random_typed(S22, rng, TYPE_ORDER[i]).terms.items()})
    v = Multivector(S22, Field.COMPLEX,
                    {m: complex(0, c.real) for m, c in
                     _random_typed(S22, rng, TYPE_ORDER[j]).terms.items()})
    assert p1.matches(u, 0.0) and p2.matches(v, 0.0)
    for op in OpKind:
        out = pattern_compose(op, p1, p2)
        if op is OpKind.GEOMETRIC:
            res = u.geometric_product(v)
        elif op is OpKind.COMMUTATOR:
            res = u.commutator(v)
        else:
            res = u.anticommutator(v)
        assert out.matches(res, 0.0)
