"""Verification harness tests.

The generator is pinned to the published splitmix64 test vectors so that a
counterexample reported here can be reproduced by an independent
implementation.  Negative controls check that the harness fails when it
should: a corrupted composition rule and two subspaces that are not closed.
"""

import itertools
import math
import random
import re

import pytest

from quatype import blades, verify

from quatype.blades import Signature, canonical_sign, grade, sign_table
from quatype.exprio import format_expression
from quatype.multivector import Field, FieldMismatch, Multivector
from quatype.qtype import (CoeffClass, OpKind, QType, SubspacePattern, is_closed,
                           main_compose)
from quatype.verify import (
    CheckConfig,
    CheckStatus,
    SplitMix64,
    Strategy,
    UnknownCheck,
    WC_PATTERN,
    check_grade_pattern,
    check_pattern_closure,
    check_quaternion_axioms,
    check_rank_coincidence,
    check_subalgebra_theorems,
    check_theorem5,
    check_theorem6,
    check_theorem6_7,
    check_theorem7,
    check_type_table,
    check_wc_membership,
    closure_catalog,
    derive_subseed,
    fnv1a64,
    is_in_wc,
    is_pseudo_unitary,
    resolve_suite,
    run_suite,
    sample_pattern_mv,
)

S22 = Signature(2, 2)


def cfg_for(sig: Signature, **kw) -> CheckConfig:
    defaults = dict(seed=0, samples=25)
    defaults.update(kw)
    return CheckConfig(sig=sig, **defaults)


# ----------------------------------------------------------------------
# generator pinning

def test_splitmix64_reference_vectors():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    g = SplitMix64(0x123456789ABCDEF)
    assert g.next_u64() == 0x157A3807A48FAA9D


def test_fnv1a64_reference_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_subseed_depends_on_name_and_seed():
    assert derive_subseed(0, "grades") != derive_subseed(0, "wc")
    assert derive_subseed(0, "grades") != derive_subseed(1, "grades")
    assert derive_subseed(5, "rank") == derive_subseed(5, "rank")


def test_next_int_range():
    g = SplitMix64(99)
    draws = [g.next_int(-3, 3) for _ in range(500)]
    assert min(draws) == -3
    assert max(draws) == 3
    assert g.next_int(4, 4) == 4


def test_splitmix64_refuses_non_integer_seeds_and_bounds():
    # SplitMix64(True) used to seed 1, next_int(3, 1) to return 3 and
    # next_int(1.5, 3) to return 2.5
    for bad in (1.5, True, "1"):
        with pytest.raises(TypeError, match="seed must be an integer"):
            SplitMix64(bad)
    g = SplitMix64(7)
    for lo, hi in ((1.5, 3), (True, 3), (0, 3.0), (0, False)):
        with pytest.raises(TypeError, match="must be an integer"):
            g.next_int(lo, hi)
    with pytest.raises(ValueError, match="lo=3 > hi=1"):
        g.next_int(3, 1)


def test_sample_pattern_respects_pattern():
    g = SplitMix64(3)
    p = SubspacePattern.from_parts(real="02", imag="1")
    for _ in range(20):
        u = sample_pattern_mv(S22, p, g)
        assert p.matches(u, 0.0) and u.field is Field.COMPLEX


def _reference_basis(sig, p):
    """Real basis elements unit * blade of ``p``, ascending masks, 1 before i."""
    return [(m, unit) for m in range(sig.blade_count) for bit, unit in ((0, 1), (1, 1j))
            if int(p[grade(m) & 3]) >> bit & 1]


def _reference_draw(sig, basis, k, replay):
    """A capped sample as README's Determinism section states it: k partial
    Fisher-Yates steps over the whole basis list, then one draw per pick in
    ascending basis order, from the raw splitmix64 stream ``replay``."""
    order = list(range(len(basis)))
    for i in range(k):
        j = i + replay.next_u64() % (len(basis) - i)
        order[i], order[j] = order[j], order[i]
    want = {}
    for index in sorted(order[:k]):
        mask, unit = basis[index]
        want[mask] = want.get(mask, 0) + (replay.next_u64() % 7 - 3) * unit
    return Multivector(sig, Field.COMPLEX, want)


def test_sample_cap_picks_k_real_basis_elements():
    p = SubspacePattern.from_parts(real="23", imag="1")
    basis = _reference_basis(S22, p)
    assert list(verify._real_basis(S22, p)) == basis and len(basis) == 14
    for seed in range(20):
        # a cap of at least the basis size keeps the dense draw, bit for bit
        dense = sample_pattern_mv(S22, p, SplitMix64(seed))
        capped = sample_pattern_mv(S22, p, SplitMix64(seed), k=14)
        assert dense == capped and list(dense.terms) == list(capped.terms)
        # a smaller cap: 3 partial Fisher-Yates steps, then 3 draws
        g, replay = SplitMix64(seed), SplitMix64(seed)
        assert sample_pattern_mv(S22, p, g, k=3) == _reference_draw(S22, basis, 3, replay)
        assert g.next_u64() == replay.next_u64()
    with pytest.raises(ValueError, match="at least 1"):
        sample_pattern_mv(S22, p, SplitMix64(1), k=0)
    # a bool would draw one element, a float or str would fail inside range
    for bad in (2.5, "3", True):
        with pytest.raises(TypeError, match="k must be an integer"):
            sample_pattern_mv(S22, p, SplitMix64(1), k=bad)


def test_witness_draws_replay_at_n_ge_5():
    # theorem 7's capped witness draw on every Lie row above n = 4, where
    # the cap bites; each sample continues the stream where the last stopped
    k = verify._WITNESS_K
    for sig in (Signature(3, 2), Signature(4, 4), Signature(6, 6)):
        for lie, _ in verify.LIE_SUBALGEBRA_ROWS:
            basis = _reference_basis(sig, lie)
            assert len(basis) > k
            g, replay = SplitMix64(sig.n), SplitMix64(sig.n)
            for _ in range(3):
                u = sample_pattern_mv(sig, lie, g, k=k)
                assert u == _reference_draw(sig, basis, k, replay)
                assert list(u.terms) == sorted(u.terms)
            assert g.next_u64() == replay.next_u64()


# ----------------------------------------------------------------------
# config plumbing

def test_config_has_three_settings():
    assert CheckConfig.__match_args__ == ("sig", "seed", "samples")
    assert list(Strategy) == [Strategy.EXHAUSTIVE]
    # theorem 7 runs exp at exp's own eps and term budget, and membership is
    # decided exactly (test_membership_defects_are_exact)
    removed = {"strategy": Strategy.EXHAUSTIVE, "exp_eps": 1e-14, "exp_max_terms": 200,
               "tol": 0.5}
    for name, value in removed.items():
        with pytest.raises(TypeError, match=name):
            CheckConfig(sig=S22, **{name: value})
    assert not hasattr(CheckConfig, "tol")


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(sig=S22, samples=0)
    with pytest.raises(TypeError):
        CheckConfig(sig="Cl(2,2)")


def test_config_refuses_non_integer_counts():
    # float counts used to pass validation and fail later inside range()
    with pytest.raises(TypeError, match="samples must be an integer"):
        CheckConfig(sig=S22, samples=2.5)
    # a bool is refused, not stored or read as 1 or 0
    with pytest.raises(TypeError, match="samples must be an integer, not bool"):
        CheckConfig(sig=S22, samples=True)


def test_config_refuses_non_integer_seed():
    # refused, not truncated (2.5), parsed ("7") or read as 1 (True)
    for bad in (2.5, "7", True):
        with pytest.raises(TypeError, match="seed must be an integer"):
            CheckConfig(sig=S22, seed=bad)
    # integers still wrap mod 2^64
    assert CheckConfig(sig=S22, seed=-1).seed == 2 ** 64 - 1
    assert CheckConfig(sig=S22, seed=2 ** 64 + 5).seed == 5


# ----------------------------------------------------------------------
# positive checks

def test_axioms_exhaustive_pass_and_case_count():
    report = check_quaternion_axioms(OpKind.ANTICOMMUTATOR, cfg_for(S22))
    assert report.status is CheckStatus.PASS
    assert report.cases_run == 256  # all 16x16 blade pairs
    assert report.counterexample is None
    report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(S22))
    assert report.status is CheckStatus.PASS


def test_axioms_reject_geometric_op():
    with pytest.raises(ValueError):
        check_quaternion_axioms(OpKind.GEOMETRIC, cfg_for(S22))


def test_axioms_trivial_at_n1():
    report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(Signature(1, 0)))
    assert report.status is CheckStatus.PASS


def test_grade_pattern_census_passes():
    for sig in (S22, Signature(4, 3)):
        assert check_grade_pattern(cfg_for(sig)).status is CheckStatus.PASS


def test_grade_residue_is_main_compose_mod_4():
    # grades and axioms:* decide one predicate through two derivations: the
    # rank-level rule is the main-type rule read on ranks mod 4
    for op in (OpKind.COMMUTATOR, OpKind.ANTICOMMUTATOR):
        for k in range(13):
            for l in range(13):
                assert verify._grade_residue(op, k, l) == main_compose(op, k & 3, l & 3), \
                    (op, k, l)


def test_type_table_sound_all_ops():
    for op in OpKind:
        report = check_type_table(op, cfg_for(S22, samples=50))
        assert report.status is CheckStatus.PASS
        assert "coverage" in report.notes


def test_closure_catalog_counts():
    entries = closure_catalog()
    assert len(entries) == 43
    by_op = {}
    for op, field, _ in entries:
        by_op[(op, field)] = by_op.get((op, field), 0) + 1
    assert by_op[(OpKind.GEOMETRIC, Field.REAL)] == 1
    assert by_op[(OpKind.GEOMETRIC, Field.COMPLEX)] == 4
    assert by_op[(OpKind.COMMUTATOR, Field.REAL)] == 4
    assert by_op[(OpKind.COMMUTATOR, Field.COMPLEX)] == 15
    assert by_op[(OpKind.ANTICOMMUTATOR, Field.REAL)] == 4
    assert by_op[(OpKind.ANTICOMMUTATOR, Field.COMPLEX)] == 15


def test_all_closures_pass_at_several_signatures():
    for sig in (Signature(4, 0), Signature(2, 2), Signature(1, 3)):
        for report in check_subalgebra_theorems(cfg_for(sig, samples=20)):
            assert report.status is CheckStatus.PASS, report.name


def _real_dim(sig, pattern):
    """Real dimension of a pattern's subspace: blades of each type times the
    parts (real, imaginary) its class grants."""
    per_type = [sum(math.comb(sig.n, g) for g in range(t, sig.n + 1, 4))
                for t in range(4)]
    return sum(per_type[t] * bin(pattern[t]).count("1") for t in range(4))


def test_theorem5_passes():
    for sig in (S22, Signature(4, 1)):
        report = check_theorem5(cfg_for(sig, samples=30))
        assert report.status is CheckStatus.PASS
        # each relation: the abstract case plus every real basis pair
        assert report.cases_run == sum(1 + _real_dim(sig, p1) * _real_dim(sig, p2)
                                       for p1, p2, _ in verify.WC_RELATIONS)
    assert check_theorem5(cfg_for(S22)).cases_run == 174


def test_census_closures_report_real_basis_pairs():
    for op, field, pattern in closure_catalog():
        report = check_pattern_closure(op, pattern, cfg_for(S22), field)
        assert report.cases_run == 1 + _real_dim(S22, pattern) ** 2, report.name
    for (lie, _), report in zip(verify.LIE_SUBALGEBRA_ROWS, check_theorem6(cfg_for(S22))):
        assert report.cases_run == 1 + _real_dim(S22, lie) ** 2, report.name


def test_theorem6_and_7_pass():
    reports = check_theorem6_7(cfg_for(S22, samples=15))
    assert len(reports) == 8
    for report in reports:
        assert report.status is CheckStatus.PASS, report.name


def test_theorem7_passes_at_n8():
    # Samples scaled to l1 <= 1 keep the series free of large cancelling
    # terms; scaled to inf-norm <= 1 they missed the 1e-9 bound here.
    reports = check_theorem7(cfg_for(Signature(4, 4), samples=3))
    assert [r.status for r in reports] == [CheckStatus.PASS] * 4


def test_theorem7_witness_stays_in_2_to_the_k_blades_at_n12(monkeypatch):
    samples, exps = [], []
    draw, original_exp = verify.sample_pattern_mv, Multivector.exp

    def recorded_draw(*args, **kw):
        samples.append(draw(*args, **kw))
        return samples[-1]

    def recorded_exp(self, *args):
        exps.append(original_exp(self, *args))
        return exps[-1]

    monkeypatch.setattr(verify, "sample_pattern_mv", recorded_draw)
    monkeypatch.setattr(Multivector, "exp", recorded_exp)
    reports = check_theorem7(cfg_for(Signature(6, 6), samples=3))
    assert [r.status for r in reports] == [CheckStatus.PASS] * 4
    assert len(samples) == len(exps) == 12
    assert max(len(u.terms) for u in samples) <= verify._WITNESS_K == 8
    assert max(len(big_u.terms) for big_u in exps) <= 2 ** 8


def test_wc_membership_check_passes(monkeypatch):
    def no_draws(self):
        raise AssertionError("wc drew a sample")

    monkeypatch.setattr(SplitMix64, "next_u64", no_draws)
    for sig in (Signature(1, 0), S22, Signature(3, 2)):
        report = check_wc_membership(cfg_for(sig, samples=50))
        assert report.status is CheckStatus.PASS
        assert report.cases_run == 2 ** (sig.n + 1)


def test_membership_defects_are_exact():
    # Why membership is decided exactly: at every signature with p + q <= 12,
    # each real basis element has conjugation defect exactly 0 or 2 and
    # leaks exactly 0 or 1 from WC_PATTERN, and theorem 7's witness samples
    # have defect exactly 0 and exp images that leak exactly 0 from the
    # row's ambient (check_theorem7's docstring proves both).
    for n in range(1, 13):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            defects, leaks = set(), set()
            for mask, unit in verify._real_basis(sig, verify._EVERYTHING):
                e = Multivector.basis_blade(sig, mask, unit)
                defects.add(verify._wc_defect(e))
                leaks.add(WC_PATTERN.leakage(e))
            assert (defects, leaks) == ({0.0, 2.0}, {0.0, 1.0}), sig
            for lie, ambient in verify.LIE_SUBALGEBRA_ROWS:
                rng = SplitMix64(derive_subseed(0, f"theorem7:{lie}->{ambient}"))
                for _ in range(5):  # drawn and scaled as _theorem7_row does
                    u = sample_pattern_mv(sig, lie, rng, k=verify._WITNESS_K)
                    l1 = sum(abs(c.real) + abs(c.imag) for c in u.terms.values())
                    u = u.scale(1.0 / l1) if l1 > 1.0 else u
                    assert verify._wc_defect(u) == 0.0, (sig, lie, u)
                    assert ambient.leakage(u.exp()) == 0.0, (sig, lie, u)


def test_theorem7_fails_an_exp_image_leaking_1e_12(monkeypatch):
    # 1e-12 on e1 is outside every ambient but 0123 and far below the
    # pseudo-unitary bound: only the exact leakage read can see it
    original = Multivector.exp

    def exp(self, *args):
        return original(self, *args) + Multivector.basis_blade(
            self.sig, 0b1, 1e-12, self.field)

    monkeypatch.setattr(Multivector, "exp", exp)
    reports = {r.name: r for r in check_theorem7(cfg_for(S22))}
    assert reports["theorem7:23->0123"].status is CheckStatus.PASS
    for name in ("theorem7:2->02", "theorem7:2+i0->02+i02", "theorem7:2+i1->02+i13"):
        ce = reports[name].counterexample
        assert reports[name].status is CheckStatus.FAIL, name
        assert (ce.operation, ce.magnitude) == ("exp", 1e-12), name
        assert ce.component == "outside pattern " + name.split("->")[1]


def test_conjugate_off_by_1e_13_fails_wc_and_theorem6(monkeypatch):
    # a conjugation defect of 1e-13, below any tolerance a float check
    # would pick, fails the exact reads
    original = Multivector.conjugate

    def conjugate(self):
        return original(self) + Multivector.scalar(self.sig, 1e-13, self.field)

    monkeypatch.setattr(Multivector, "conjugate", conjugate)
    assert check_wc_membership(cfg_for(S22)).to_dict() == _failed("wc", 1, (
        "1", None, "conj", "conj(u) is neither u nor -u", 2.0000000000001))
    # each row fails on its first real basis element, counted after the
    # abstract case
    assert [r.to_dict() for r in check_theorem6(cfg_for(S22))] == [
        _failed(f"theorem6:{lie}", 2, (lhs, None, "conj", "conj(u) + u", 1e-13))
        for lie, lhs in (("2", "e12"), ("2+i0", "(0+1i)"), ("2+i1", "(0+1i)e1"),
                         ("23", "e12"))]


def test_grade4_sign_error_fails_theorem6_and_wc(monkeypatch):
    # One probe per main type cannot see this: types 0..3 first occur at
    # grades 0..3.
    original = Multivector.conjugate

    def conjugate(self):
        return original(self) - 2 * original(self).grade_project(4)

    monkeypatch.setattr(Multivector, "conjugate", conjugate)
    sig = Signature(4, 0)
    reports = {r.name: r for r in check_theorem6(cfg_for(sig))}
    # i e1234 is the last of the 8 real basis elements of 2+i0 (i, six
    # bivectors, i e1234), counted after the abstract case
    assert reports["theorem6:2+i0"].to_dict() == _failed("theorem6:2+i0", 9, (
        "(0+1i)e1234", None, "conj", "conj(u) + u", 2.0))
    # e1234 is the 31st of the 32 real basis elements of the whole algebra
    assert check_wc_membership(cfg_for(sig)).to_dict() == _failed("wc", 31, (
        "e1234", None, "conj", "conjugation says True, pattern says False", 0.0))


def test_wc_non_diagonal_conjugation_fails(monkeypatch):
    swap = {0b001: 0b010, 0b010: 0b001}  # e1 <-> e2, everything else fixed
    original = Multivector.conjugate

    def conjugate(self):
        image = original(self)
        return Multivector(self.sig, self.field,
                           {swap.get(m, m): c for m, c in image.terms.items()})

    monkeypatch.setattr(Multivector, "conjugate", conjugate)
    # 1 and i pass; e1 is the 3rd real basis element
    assert check_wc_membership(cfg_for(Signature(2, 1))).to_dict() == _failed(
        "wc", 3, ("e1", None, "conj", "conj(u) is neither u nor -u", 1.0))


def test_rank_coincidence_small_and_skip():
    for n, expected in ((1, CheckStatus.PASS), (3, CheckStatus.PASS),
                        (4, CheckStatus.SKIPPED)):
        report = check_rank_coincidence(cfg_for(Signature(n, 0), samples=20))
        assert report.status is expected
        if n < 4:
            assert report.cases_run == 2 ** n  # every basis blade, no samples


# ----------------------------------------------------------------------
# the blade-pair census behind the exhaustive checks

def _brute_census(sig):
    """The census by definition: every ordered pair, signs from
    canonical_sign, first pair per cell in a-major order."""
    first = {}
    for a in sig.blades():
        for b in sig.blades():
            s_ab, m = canonical_sign(a, b, sig)
            s_ba, _ = canonical_sign(b, a, sig)
            first.setdefault((grade(a), grade(b), grade(m), s_ab * s_ba), (a, b))
    return tuple(sorted(pair + cell for cell, pair in first.items()))


def test_census_matches_brute_force_pass():
    for n in range(1, 8):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            assert verify._census(sig) == _brute_census(sig), sig


def test_census_cells_match_closed_form():
    # Blades of grades k and l sharing j generators multiply to grade
    # k + l - 2j, and ba = (-1)^(kl - j) ab whatever the metric.
    for n in range(1, 13):
        closed = {(k, l, k + l - 2 * j, (-1) ** (k * l - j))
                  for k in range(n + 1) for l in range(n + 1)
                  for j in range(max(0, k + l - n), min(k, l) + 1)}
        for p in range(n + 1):
            rows = verify._census(Signature(p, n - p))
            assert {row[2:] for row in rows} == closed, (p, n - p)
            assert len(rows) == len(closed)
    assert len(closed) == 455


def test_census_rows_match_closed_form_with_first_pairs():
    # For grades k, l sharing j generators, the a-major first pair is
    # a = 2^k - 1 and b = (2^j - 1) | ((2^(l - j) - 1) << k).
    for n in range(1, 13):
        closed = sorted(
            ((1 << k) - 1, (1 << j) - 1 | ((1 << (l - j)) - 1) << k,
             k, l, k + l - 2 * j, (-1) ** (k * l - j))
            for k in range(n + 1) for l in range(n + 1)
            for j in range(min(k, l) + 1) if k + l - j <= n)
        for p in range(n + 1):
            assert list(verify._census(Signature(p, n - p))) == closed, (p, n - p)


def test_pair_count_matches_mod4_binomial_closed_form():
    # A second derivation of the real dimensions behind the census verdicts:
    # sum over g = k mod 4 of C(n, g) = 2^(n-2) + 2^((n-2)/2) cos(pi (n-2k)/4).
    for n in range(1, 13):
        for k in range(4):
            direct = sum(math.comb(n, g) for g in range(k, n + 1, 4))
            closed = round(2 ** (n - 2) + 2 ** ((n - 2) / 2)
                           * math.cos(math.pi * (n - 2 * k) / 4))
            assert direct == closed, (n, k)
            pattern = SubspacePattern.from_parts(real=str(k))
            sig = Signature(n // 2, n - n // 2)
            assert verify._pair_count(sig, pattern, pattern) == closed ** 2


@pytest.mark.parametrize("half", ["low0", "high"])
def test_census_sees_one_flipped_kernel_sign(monkeypatch, half):
    sig = Signature(4, 4)
    h, (low0, low1), high = sign_table(sig)
    low0, high = [row[:] for row in low0], [row[:] for row in high]
    flipped = low0 if half == "low0" else high
    flipped[1][2] ^= 1
    monkeypatch.setattr(verify, "sign_table", lambda s: (h, (low0, low1), high))
    verify._census.cache_clear()
    try:
        report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(sig))
        theorem7 = check_theorem7(cfg_for(sig, samples=1))
    finally:
        verify._census.cache_clear()
    assert report.status is CheckStatus.FAIL
    # theorem7's exact half: conjugation no longer reverses every product
    for row in theorem7:
        assert row.status is CheckStatus.FAIL, row.name
        assert row.counterexample.component == "conj(ab) - conj(b) conj(a)"


def skip_adjacent_form(b: int, sig: Signature) -> int:
    """The sign form with a swap count that skips adjacent generators: bit j
    of the swap part is the parity of b's generators below j - 1."""
    x = b << 2
    for s in (1, 2, 4, 8):
        x ^= x << s
    return x ^ (b >> sig.p << sig.p)


def test_census_sees_an_off_diagonal_fault_in_the_sign_form(monkeypatch):
    # The census reads s_ab * s_ba, where the form's diagonal (the metric)
    # cancels; a fault off the diagonal changes it, and the table built
    # from the form must carry that fault to the census.
    sig = Signature(4, 4)
    monkeypatch.setattr(blades, "_form", skip_adjacent_form)
    blades.sign_table.cache_clear()
    verify._census.cache_clear()
    try:
        report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(sig))
        theorem7 = check_theorem7(cfg_for(sig, samples=1))
    finally:
        blades.sign_table.cache_clear()
        verify._census.cache_clear()
    assert report.name == "axioms:comm" and report.status is CheckStatus.FAIL
    assert len(theorem7) == 4
    for row in theorem7:
        assert row.status is CheckStatus.FAIL, row.name
        assert row.counterexample.component == "conj(ab) - conj(b) conj(a)"


# Every pattern: one coefficient class per main type.
ALL_PATTERNS = [SubspacePattern(tuple(map(CoeffClass, classes)))
                for classes in itertools.product(range(4), repeat=4)]
REAL_PATTERNS = [p for p in ALL_PATTERNS
                 if not any(c & CoeffClass.IMAGINARY for c in p.classes)]


def test_closure_catalog_is_every_closed_pattern():
    assert (len(ALL_PATTERNS), len(REAL_PATTERNS)) == (256, 16)
    empty = SubspacePattern.from_parts()
    whole = {Field.COMPLEX: SubspacePattern.from_parts("0123", "0123"),
             Field.REAL: SubspacePattern.from_parts("0123")}
    for op in OpKind:
        for field, patterns in ((Field.COMPLEX, ALL_PATTERNS),
                                (Field.REAL, REAL_PATTERNS)):
            cataloged = [p for o, f, p in closure_catalog() if (o, f) == (op, field)]
            closed = {p for p in patterns if is_closed(op, p)}
            assert len(set(cataloged)) == len(cataloged)
            assert set(cataloged) == closed - {empty, whole[field]}, (op, field)


def test_census_closure_agrees_with_is_closed():
    # From n = 5 every (type, type, type) cell the rules allow occurs, so the
    # kernel's signs and the rule lattice must accept the same patterns;
    # below that the census accepts more, as some cells never occur.
    for op in OpKind:
        abstract = {p for p in ALL_PATTERNS if is_closed(op, p)}
        for n in range(1, 13):
            sig = Signature(n // 2, n - n // 2)
            census = {p for p in ALL_PATTERNS
                      if verify._census_leak(sig, op, p, p, p) is None}
            if n >= 5:
                assert census == abstract, (op, sig)
            else:
                assert census >= abstract, (op, sig)
                assert op is OpKind.ANTICOMMUTATOR or census > abstract, (op, sig)


_OPS = {OpKind.GEOMETRIC: Multivector.geometric_product,
        OpKind.COMMUTATOR: Multivector.commutator,
        OpKind.ANTICOMMUTATOR: Multivector.anticommutator}


def _basis_elements(sig, pattern, field):
    """Real basis elements unit * blade of a pattern's subspace, in
    ascending mask order, 1 before i."""
    return [Multivector.basis_blade(sig, mask, unit, field)
            for mask in sig.blades()
            for unit, part in ((1, CoeffClass.REAL), (1j, CoeffClass.IMAGINARY))
            if pattern[grade(mask) & 3] & part]


def _brute_first_leak(sig, op, p1, p2, target, field=Field.COMPLEX):
    """Apply op through the kernel to every real basis pair of P1 x P2 in
    (a, unit_a, b, unit_b) order: (position, u, v, leakage) of the first
    result that leaves target, else (number of pairs, None, None, 0.0)."""
    pairs = list(itertools.product(_basis_elements(sig, p1, field),
                                   _basis_elements(sig, p2, field)))
    for position, (u, v) in enumerate(pairs, 1):
        leak = target.leakage(_OPS[op](u, v))
        if leak:
            return position, u, v, leak
    return len(pairs), None, None, 0.0


def test_census_matches_brute_force_kernel_on_catalog_and_controls():
    controls = [(OpKind.COMMUTATOR, Field.COMPLEX, R1),
                (OpKind.ANTICOMMUTATOR, Field.COMPLEX,
                 SubspacePattern.from_parts(real="12"))]
    empty = SubspacePattern.from_parts()
    for sig in (S21, S22):
        statuses = []
        for op, field, pattern in closure_catalog() + controls:
            report = check_pattern_closure(op, pattern, cfg_for(sig), field)
            position, u, v, leak = _brute_first_leak(sig, op, pattern, pattern,
                                                     pattern, field)
            assert report.cases_run == 1 + position, report.name
            if u is not None:
                assert report.counterexample.to_dict() == {
                    "lhs": format_expression(u), "rhs": format_expression(v),
                    "operation": op.value, "component": f"outside pattern {pattern}",
                    "magnitude": leak}, report.name
            statuses.append(report.status)
        assert statuses == [CheckStatus.PASS] * 43 + [CheckStatus.FAIL] * 2
        # theorem5's relations, and against the empty target the first pair
        # with a nonzero commutator
        for p1, p2, target in verify.WC_RELATIONS:
            for t in (target, empty):
                census = verify._census_leak(sig, OpKind.COMMUTATOR, p1, p2, t)
                _, u, v, leak = _brute_first_leak(sig, OpKind.COMMUTATOR, p1, p2, t)
                if u is None:
                    assert census is None, (p1, p2, t)
                else:
                    a, unit_a, b, unit_b, coeff = census
                    assert (Multivector.basis_blade(sig, a, unit_a),
                            Multivector.basis_blade(sig, b, unit_b), float(coeff)) \
                        == (u, v, leak), (p1, p2, t)


def test_theorem7_lie_row_outside_wc_fails_both_halves(monkeypatch):
    lie = SubspacePattern.from_parts(real="2", imag="2")
    ambient = SubspacePattern.from_parts(real="02", imag="02")
    monkeypatch.setattr(verify, "LIE_SUBALGEBRA_ROWS", ((lie, ambient),))
    exact, = check_theorem7(cfg_for(S22))
    assert exact.to_dict() == _failed("theorem7:2+i2->02+i02", 1, None,
                                      "exact half: 2+i2 is not inside 23+i01")
    # with the exact half waved through, the witness sees it too
    monkeypatch.setattr(verify, "_theorem7_exact",
                        lambda cfg, name, lie, ambient: verify.CheckReport(
                            name, CheckStatus.PASS, 0))
    witness, = check_theorem7(cfg_for(S22))
    assert witness.status is CheckStatus.FAIL
    assert witness.counterexample.component == "conj(u) + u"


def _coverage(report):
    return float(re.search(r"cell coverage ([\d.]+)%", report.notes).group(1))


def test_census_table_coverage_pins():
    for sig in (S22, Signature(4, 0)):
        for op, want in ((OpKind.GEOMETRIC, 97.5), (OpKind.COMMUTATOR, 87.1),
                         (OpKind.ANTICOMMUTATOR, 100.0)):
            exact = check_type_table(op, cfg_for(sig))
            assert exact.status is CheckStatus.PASS
            assert _coverage(exact) == want
    # from n = 5 on the blade pairs reach every main type of every cell
    for n in range(5, 13):
        sig = Signature(n // 2, n - n // 2)
        for op in OpKind:
            exact = check_type_table(op, cfg_for(sig))
            assert exact.status is CheckStatus.PASS
            assert _coverage(exact) == 100.0, (sig, op)


def test_census_checks_exact_at_n12():
    for sig in (Signature(12, 0), Signature(6, 6), Signature(0, 12)):
        reports = run_suite(["axioms", "grades", "tables"], CheckConfig(sig=sig))
        assert len(reports) == 6
        for report in reports:
            assert report.status is CheckStatus.PASS, report.name
            assert report.cases_run == 4 ** 12


# ----------------------------------------------------------------------
# membership predicates

def test_is_pseudo_unitary_examples():
    e = Multivector.scalar(S22, 1)
    assert is_pseudo_unitary(e, 0.0)
    assert not is_pseudo_unitary(e.scale(2), 1e-9)
    import math
    sig = Signature(2, 0)
    rot = Multivector(sig, Field.REAL,
                      {0: math.cos(0.7), 0b11: math.sin(0.7)})
    assert is_pseudo_unitary(rot, 1e-15)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            is_pseudo_unitary(e.scale(2), tol)
    with pytest.raises(TypeError, match="tolerance must be a real number"):
        is_pseudo_unitary(e.scale(2), True)


def _reference_unitary_defect(u):
    e = Multivector.scalar(u.sig, 1.0, u.field)
    return (u.conjugate().geometric_product(u) - e).inf_norm()


def _outcome(defect, u):
    """repr of the defect (equal reprs are equal bits), or the error text."""
    try:
        return repr(defect(u))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("moved", [False, True])
def test_defect_helpers_match_multivector_expressions(monkeypatch, moved):
    if moved:  # a broken conjugate that moves and rescales terms
        original = Multivector.conjugate
        monkeypatch.setattr(Multivector, "conjugate", lambda self: Multivector(
            self.sig, self.field,
            {m ^ 1: 2 * c for m, c in original(self).terms.items()}))
    rng = random.Random(16)
    draws = (
        lambda: rng.randint(-3, 3),
        lambda: rng.uniform(-2.0, 2.0),
        lambda: rng.uniform(-1e-3, 1e-3),
        lambda: rng.choice((0.5, -0.25, 1e154, 1.5e308)),  # overflow too
    )
    cases = 0
    for n in range(1, 7):
        for _ in range(500):
            p = rng.randint(0, n)
            sig = Signature(p, n - p)
            field = rng.choice((Field.REAL, Field.COMPLEX))
            draw = rng.choice(draws)
            terms = {}
            for _ in range(rng.randint(0, 10)):  # 0 terms: the zero element
                c = draw() if field is Field.REAL else complex(draw(), draw())
                terms[rng.randrange(sig.blade_count)] = c
            u = Multivector(sig, field, terms)
            if rng.random() < 0.25 and u.inf_norm() < 1:
                u = u.exp()  # near-unitary: scalar slot of conj(U) U near 1
            for v in (u, -u):  # -u stores -0.0 parts
                assert (_outcome(verify._unitary_defect, v)
                        == _outcome(_reference_unitary_defect, v)), v
                cases += 1
    assert cases == 2 * 6 * 500


def test_is_in_wc_examples():
    assert is_in_wc(Multivector.scalar(S22, 1j), 0.0)
    assert is_in_wc(Multivector.basis_blade(S22, 0b11, 1), 0.0)
    assert not is_in_wc(Multivector.basis_blade(S22, 0b1, 1), 1e-9)
    assert WC_PATTERN.matches(Multivector.scalar(S22, 1j), 0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            is_in_wc(Multivector.basis_blade(S22, 0b1, 1), tol)
    for u in (Multivector.scalar(Signature(2, 1), 1.5e308),  # conj(u) + u
              Multivector.basis_blade(Signature(2, 1), 0b11, 1.5e308j)):
        with pytest.raises(ValueError, match="overflows"):
            is_in_wc(u)


# ----------------------------------------------------------------------
# negative controls

def test_corrupted_rule_fails():
    def bad_rule(op, a, b):
        value = main_compose(op, a, b)
        return (value + 1) & 3 if (a, b) == (1, 1) else value

    report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(S22),
                                     rule=bad_rule)
    assert report.status is CheckStatus.FAIL
    assert report.counterexample is not None
    assert report.counterexample.magnitude > 0


def test_non_closed_patterns_fail():
    bad1 = SubspacePattern.from_parts(real="1")
    report = check_pattern_closure(OpKind.COMMUTATOR, bad1, cfg_for(S22))
    assert report.status is CheckStatus.FAIL
    bad2 = SubspacePattern.from_parts(real="12")
    report = check_pattern_closure(OpKind.ANTICOMMUTATOR, bad2, cfg_for(S22))
    assert report.status is CheckStatus.FAIL


def test_fail_report_magnitude_exceeds_tol():
    # a leak is a basis pair's whole coefficient
    bad = SubspacePattern.from_parts(real="1")
    report = check_pattern_closure(OpKind.COMMUTATOR, bad, cfg_for(S22))
    assert report.to_dict() == _failed(
        "closure:comm:C:1", 3, ("e1", "e2", "comm", "outside pattern 1", 2.0),
        "abstract composition leaks: 1 composes to 2")


# ----------------------------------------------------------------------
# suite plumbing

def test_resolve_suite_expansion():
    assert resolve_suite(["axioms"]) == ["axioms:anticomm", "axioms:comm"]
    assert resolve_suite(["tables"]) == \
        ["tables:product", "tables:comm", "tables:anticomm"]
    assert resolve_suite(["grades", "grades"]) == ["grades"]
    assert resolve_suite(["all"]) == [
        "axioms:anticomm", "axioms:comm", "grades", "tables:product", "tables:comm",
        "tables:anticomm", "closures", "theorem5", "theorem6", "theorem7", "wc", "rank"]
    assert resolve_suite(["theorems"]) == \
        ["closures", "theorem5", "theorem6", "theorem7", "wc"]


def test_run_suite_unknown_check():
    with pytest.raises(UnknownCheck):
        run_suite(["bogus"], cfg_for(S22))


def test_run_suite_refuses_a_bare_string():
    # iterating "all" would ask for the checks 'a' and 'l'
    for call in (lambda: resolve_suite("all"), lambda: run_suite("all", cfg_for(S22))):
        with pytest.raises(TypeError, match="list of check names"):
            call()


def test_run_suite_deterministic():
    cfg = cfg_for(S22, seed=42, samples=10)
    first = run_suite(["axioms", "grades"], cfg)
    second = run_suite(["axioms", "grades"], cfg)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert all(r.status is CheckStatus.PASS for r in first)


def test_reports_independent_of_suite_composition():
    cfg = cfg_for(S22, seed=7, samples=10)
    alone = run_suite(["theorem7"], cfg)
    with_others = [r for r in run_suite(["theorems"], cfg)
                   if r.name.startswith("theorem7:")]
    assert [r.to_dict() for r in alone] == [r.to_dict() for r in with_others]


def test_report_serialization_shape():
    report = run_suite(["rank"], cfg_for(Signature(2, 1), samples=5))[0]
    d = report.to_dict()
    assert set(d) == {"name", "status", "cases_run", "counterexample", "notes"}
    assert d["status"] == "pass"

    failing = check_pattern_closure(OpKind.COMMUTATOR,
                                    SubspacePattern.from_parts(real="1"),
                                    cfg_for(S22))
    d = failing.to_dict()
    assert d["status"] == "fail"
    assert set(d["counterexample"]) == \
        {"lhs", "rhs", "operation", "component", "magnitude"}


# ----------------------------------------------------------------------
# failure reports
#
# Each test corrupts one piece of rule data and pins the whole report the
# check returns, so a rewrite of a check's failure path cannot change what a
# user sees.

S21 = Signature(2, 1)
R0, R1, R2 = (SubspacePattern.from_parts(real=d) for d in "012")
R02 = SubspacePattern.from_parts(real="02")
I1 = SubspacePattern.from_parts(imag="1")


def _failed(name, cases, counterexample, notes=""):
    """The to_dict() of a FAIL report; counterexample is (lhs, rhs,
    operation, component, magnitude) or None."""
    keys = ("lhs", "rhs", "operation", "component", "magnitude")
    return {
        "name": name, "status": "fail", "cases_run": cases,
        "counterexample": (None if counterexample is None
                           else dict(zip(keys, counterexample))),
        "notes": notes,
    }


def _comm_11_off_by_one(original):
    def residue(op, k, l):
        value = original(op, k, l)
        return (value + 1) & 3 if (op, k, l) == (OpKind.COMMUTATOR, 1, 1) else value
    return residue


def _flip_comm_target(op, a, b):
    return main_compose(op, a, b) ^ (1 if op is OpKind.COMMUTATOR else 0)


def test_axioms_exhaustive_fail_report():
    report = check_quaternion_axioms(OpKind.COMMUTATOR, cfg_for(S21),
                                     rule=_flip_comm_target)
    assert report.to_dict() == _failed("axioms:comm", 11, (
        "e1", "e2", "comm", "type 2 (expected 3)", 2.0))


def test_grade_pattern_exhaustive_fail_report(monkeypatch):
    monkeypatch.setattr(verify, "_grade_residue",
                        _comm_11_off_by_one(verify._grade_residue))
    report = check_grade_pattern(cfg_for(S21))
    assert report.to_dict() == _failed("grades", 11, (
        "e1", "e2", "comm", "grade 2 (want residue 3)", 2.0))


def _drop_type_2(monkeypatch):
    original = verify.emit_table
    monkeypatch.setattr(verify, "emit_table", lambda op: [
        [QType(cell.mask & 0b1011) for cell in row] for row in original(op)])


def test_type_table_exhaustive_fail_report(monkeypatch):
    _drop_type_2(monkeypatch)
    report = check_type_table(OpKind.COMMUTATOR, cfg_for(S21))
    assert report.to_dict() == _failed("tables:comm", 11, (
        "e1", "e2", "comm", "type 2 outside cell ", 2.0))


def test_type_table_exhaustive_product_fail_report(monkeypatch):
    _drop_type_2(monkeypatch)
    report = check_type_table(OpKind.GEOMETRIC, cfg_for(S21))
    assert report.to_dict() == _failed("tables:product", 4, (
        "1", "e12", "product", "type 2 outside cell 0", 1.0))


def test_closure_census_fail_report_with_witness():
    report = check_pattern_closure(OpKind.COMMUTATOR, R1, cfg_for(S21))
    assert report.to_dict() == _failed("closure:comm:C:1", 3, (
        "e1", "e2", "comm", "outside pattern 1", 2.0),
        "abstract composition leaks: 1 composes to 2")


def test_closure_abstract_fail_report_without_witness():
    # [e1, e1] = 0: nothing concrete leaks in Cl(1,0).
    report = check_pattern_closure(OpKind.COMMUTATOR, R1, cfg_for(Signature(1, 0)))
    assert report.to_dict() == _failed("closure:comm:C:1", 1, None,
        "abstract composition leaks: 1 composes to 2")


def test_closure_census_fail_report(monkeypatch):
    # The abstract rule is fooled; the kernel's signs are not.  [e1, e2] is
    # the second real basis pair of real type 1 at Cl(2,1).
    monkeypatch.setattr(verify, "pattern_compose", lambda op, p1, p2: p1)
    report = check_pattern_closure(OpKind.COMMUTATOR, R1, cfg_for(S21))
    assert report.to_dict() == _failed("closure:comm:C:1", 3, (
        "e1", "e2", "comm", "outside pattern 1", 2.0))


def test_closure_census_refuses_imaginary_pattern_in_real_field():
    with pytest.raises(FieldMismatch):
        check_pattern_closure(OpKind.COMMUTATOR, I1, cfg_for(S21), field=Field.REAL)


def _wrong_second_relation(monkeypatch):
    rows = list(verify.WC_RELATIONS)
    p1, p2, _ = rows[1]
    rows[1] = (p1, p2, SubspacePattern.from_parts(real="3"))
    monkeypatch.setattr(verify, "WC_RELATIONS", tuple(rows))


def test_theorem5_census_abstract_fail_report(monkeypatch):
    # The first relation [i0, i0] has one real basis pair at Cl(2,1).
    _wrong_second_relation(monkeypatch)
    report = check_theorem5(cfg_for(S21))
    assert report.to_dict() == _failed("theorem5", 3, None,
        "abstract relation [i1, i1] leaks outside 3")


def test_theorem5_census_fail_report(monkeypatch):
    _wrong_second_relation(monkeypatch)
    monkeypatch.setattr(verify, "pattern_compose",
                        lambda op, p1, p2: SubspacePattern.from_parts())
    report = check_theorem5(cfg_for(S21))
    assert report.to_dict() == _failed("theorem5", 5, (
        "(0+1i)e1", "(0+1i)e2", "comm", "[i1, i1] outside 3", 2.0))


def test_theorem6_census_fail_reports(monkeypatch):
    monkeypatch.setattr(verify, "LIE_SUBALGEBRA_ROWS", ((R0, R0), (R02, R02)))
    reports = check_theorem6(cfg_for(S21))
    assert [r.to_dict() for r in reports] == [
        _failed("theorem6:0", 1, None,
            "abstract commutator closure fails"),
        _failed("theorem6:02", 2, ("1", None, "conj", "conj(u) + u", 2.0),
            "abstract membership fails: 02 is not inside 23+i01"),
    ]


def test_theorem6_census_commutator_fail_report(monkeypatch):
    monkeypatch.setattr(verify, "LIE_SUBALGEBRA_ROWS", ((I1, I1),))
    monkeypatch.setattr(verify, "is_closed", lambda op, pattern: True)
    reports = check_theorem6(cfg_for(S21))
    assert [r.to_dict() for r in reports] == [
        _failed("theorem6:i1", 3, (
            "(0+1i)e1", "(0+1i)e2", "comm", "outside pattern i1", 2.0)),
    ]


def test_theorem6_abstract_membership_fail_report(monkeypatch):
    # Cl(1,0) has no grade-2 blade, so every concrete test passes vacuously
    lie = SubspacePattern.from_parts(real="2", imag="2")
    monkeypatch.setattr(verify, "LIE_SUBALGEBRA_ROWS",
                        ((lie, SubspacePattern.from_parts(real="02", imag="02")),))
    reports = check_theorem6(cfg_for(Signature(1, 0)))
    assert [r.to_dict() for r in reports] == [
        _failed("theorem6:2+i2", 1, None,
            "abstract membership fails: 2+i2 is not inside 23+i01"),
    ]


# theorem7's first witness sample per row at Cl(2,1), seed 0, after the
# exact half's 37 or 85 cases
_W2 = "0.3333333333333333e12 + 0.3333333333333333e13 + 0.3333333333333333e23"
_W2I0 = ("(0-0.3333333333333333i) + 0.3333333333333333e12"
         " + 0.16666666666666666e13 + 0.16666666666666666e23")
_W2I1 = ("(0-0.23076923076923078i)e1 + (0-0.23076923076923078i)e2"
         " + (0+0.15384615384615385i)e3 - 0.23076923076923078e12"
         " + 0.07692307692307693e13 - 0.07692307692307693e23")
_W23 = ("-0.3333333333333333e12 - 0.3333333333333333e13"
        " + 0.2222222222222222e23 - 0.1111111111111111e123")


def test_theorem7_fail_reports(monkeypatch):
    # exp(u) e1 is still pseudo-unitary (conj(e1) e1 = e1^2 = 1) but odd
    original = Multivector.exp
    monkeypatch.setattr(Multivector, "exp", lambda self, *args: original(
        self, *args).geometric_product(Multivector.basis_blade(self.sig, 0b1)))
    reports = check_theorem7(cfg_for(S21))
    assert [r.to_dict() for r in reports[:3]] == [
        _failed("theorem7:2->02", 38, (
            _W2, None, "exp", "outside pattern 02", 1.0560718678299397)),
        _failed("theorem7:2+i0->02+i02", 86, (
            _W2I0, None, "exp", "outside pattern 02+i02", 0.9188294396734082)),
        _failed("theorem7:2+i1->02+i13", 86, (
            _W2I1, None, "exp", "outside pattern 02+i13", 0.9385105234123996)),
    ]
    assert reports[3].status is CheckStatus.PASS  # 0123 holds odd elements


def test_theorem7_defect_fail_report(monkeypatch):
    # exp with its third-order series term flipped: only the witness sees it
    original = Multivector.exp

    def exp(self, *args):
        cube = self.geometric_product(self).geometric_product(self)
        return original(self, *args) - cube.scale(2 / 6)

    monkeypatch.setattr(Multivector, "exp", exp)
    reports = check_theorem7(cfg_for(S21))
    assert [r.to_dict() for r in reports] == [
        _failed("theorem7:2->02", 38, (
            _W2, None, "exp", "conj(U) U - 1", 0.008231301672839697)),
        _failed("theorem7:2+i0->02+i02", 86, (
            _W2I0, None, "exp", "conj(U) U - 1", 0.049425569082657134)),
        _failed("theorem7:2+i1->02+i13", 86, (
            _W2I1, None, "exp", "conj(U) U - 1", 0.010295077827420451)),
        _failed("theorem7:23->0123", 86, (
            _W23, None, "exp", "conj(U) U - 1", 0.006097268262668792)),
    ]


def test_theorem7_witness_conj_fail_report(monkeypatch):
    # Grade signs right, complex conjugation skipped: the exact half reads
    # only the signs of real blades, so the witness is the first to see it.
    original = Multivector.conjugate

    def conjugate(self):
        return Multivector(self.sig, self.field, {
            m: c.conjugate() for m, c in original(self).terms.items()})

    monkeypatch.setattr(Multivector, "conjugate", conjugate)
    reports = check_theorem7(cfg_for(S21))
    assert [r.status for r in reports] == [
        CheckStatus.PASS, CheckStatus.FAIL, CheckStatus.FAIL, CheckStatus.PASS]
    assert [r.to_dict() for r in reports[1:3]] == [
        _failed("theorem7:2+i0->02+i02", 86, (
            _W2I0, None, "conj", "conj(u) + u", 0.6666666666666666)),
        _failed("theorem7:2+i1->02+i13", 86, (
            _W2I1, None, "conj", "conj(u) + u", 0.46153846153846156)),
    ]


def test_theorem7_exact_half_fail_reports(monkeypatch):
    R012 = SubspacePattern.from_parts(real="012")
    monkeypatch.setattr(verify, "LIE_SUBALGEBRA_ROWS",
                        ((R02, R02), (R2, R0), (R2, R2), (R2, R012)))
    reports = check_theorem7(cfg_for(S21, samples=5))
    assert [r.to_dict() for r in reports] == [
        _failed("theorem7:02->02", 1, None, "exact half: 02 is not inside 23+i01"),
        _failed("theorem7:2->0", 1, None, "exact half: 2 is not inside 0"),
        _failed("theorem7:2->2", 1, None, "exact half: 2 holds no real scalar"),
        # e1 e23 = e123: the 2nd and 7th of the 7 real basis elements of 012
        _failed("theorem7:2->012", 1 + 1 * 7 + 7, (
            "e1", "e23", "product", "outside pattern 012", 1.0),
            "abstract composition leaks: 012 composes to 0123"),
    ]


def test_wc_membership_disagreement_fail_report(monkeypatch):
    monkeypatch.setattr(verify, "WC_PATTERN",
                        SubspacePattern.from_parts(real="01", imag="23"))
    report = check_wc_membership(cfg_for(S21, samples=5))
    assert report.to_dict() == _failed("wc", 1, (
        "1", None, "conj", "conjugation says False, pattern says True", 2.0))


def test_wc_membership_rejected_sample_fail_report(monkeypatch):
    monkeypatch.setattr(verify, "is_in_wc", lambda u, tol=1e-12: False)
    monkeypatch.setattr(SubspacePattern, "matches", lambda self, mv, tol=0.0: False)
    report = check_wc_membership(cfg_for(S21, samples=5))
    # i, the 2nd real basis element, is the first that the pattern grants
    assert report.to_dict() == _failed("wc", 2, (
        "(0+1i)", None, "conj", "pattern element rejected", 0.0))


def test_rank_detect_fail_report(monkeypatch):
    monkeypatch.setattr(verify, "detect_qtype", lambda mv, tol=1e-12: QType.of(0))
    report = check_rank_coincidence(cfg_for(S21, samples=5))
    assert report.to_dict() == _failed("rank", 2, ("e1", None, "detect", "type 0", 1.0))


def test_rank_blade_projection_fail_report(monkeypatch):
    original = Multivector.qtype_project

    def project(self, kbar):
        return original(self, kbar).scale(2) if kbar == 1 else original(self, kbar)

    monkeypatch.setattr(Multivector, "qtype_project", project)
    report = check_rank_coincidence(cfg_for(S21, samples=5))
    assert report.to_dict() == _failed("rank", 2, (
        "e1", None, "project", "type vs grade projection at 1", 1.0))


