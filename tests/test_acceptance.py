"""Acceptance suite: ten numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every criterion states its own tolerance; "exact" means a straight
``==`` on coefficients with no epsilon anywhere.
"""

import json
import subprocess
import sys
import time

from quatype.blades import Signature
from quatype.multivector import Field, Multivector
from quatype.qtype import (
    OpKind,
    SubspacePattern,
    TYPE_ORDER,
    emit_table,
)
from quatype.reference_tables import compare_table, discrepancy_report
from quatype.verify import (
    CheckConfig,
    CheckStatus,
    SplitMix64,
    check_grade_pattern,
    check_pattern_closure,
    check_quaternion_axioms,
    check_rank_coincidence,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    closure_catalog,
    derive_subseed,
)

S22 = Signature(2, 2)


def _line(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {label}")


def all_signatures(max_n: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_criterion_01_axiom_suite():
    t0 = time.monotonic()
    bad = []
    for sig in all_signatures(6):
        cfg = CheckConfig(sig=sig)
        for op in (OpKind.COMMUTATOR, OpKind.ANTICOMMUTATOR):
            r = check_quaternion_axioms(op, cfg)
            if r.status is not CheckStatus.PASS:
                bad.append((str(sig), op.value, r.to_dict()))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    _line(1, ok, "bracket residue axioms, exhaustive blade pairs, "
                 f"all signatures n<=6, exact ({elapsed:.1f}s)")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_02_grade_pattern_suite():
    bad = []
    for sig in all_signatures(6):
        cfg = CheckConfig(sig=sig)
        r = check_grade_pattern(cfg)
        if r.status is not CheckStatus.PASS:
            bad.append((str(sig), r.to_dict()))
    ok = not bad
    _line(2, ok, "bracket grade sets (residue-4 ladders), exhaustive, "
                 "all signatures n<=6, exact")
    assert not bad, bad


def test_criterion_03_table_reproduction():
    idx = {str(t): i for i, t in enumerate(TYPE_ORDER)}
    anticomm = emit_table(OpKind.ANTICOMMUTATOR)
    product = emit_table(OpKind.GEOMETRIC)
    spot_ok = (
        str(anticomm[idx["02"]][idx["02"]]) == "02"
        and str(product[idx["0"]][idx["0"]]) == "02"
        and str(product[idx["0"]][idx["1"]]) == "13"
    )
    legible_ok = not compare_table("anticomm") and not compare_table("product")
    report = discrepancy_report()
    mismatch_total = sum(len(v) for v in report.values())
    ok = spot_ok and legible_ok and mismatch_total > 0
    _line(3, ok, "transcribed tables reproduced; discrepancy report lists "
                 f"{mismatch_total} corrupted printed cells")
    assert spot_ok
    assert legible_ok
    assert mismatch_total > 0


def test_criterion_04_closure_with_negative_controls():
    bad = []
    for sig in (Signature(4, 0), S22, Signature(1, 3)):
        cfg = CheckConfig(sig=sig)
        for op, field, pattern in closure_catalog():
            r = check_pattern_closure(op, pattern, cfg, field)
            if r.status is not CheckStatus.PASS:
                bad.append((str(sig), r.name, r.to_dict()))
        controls = [
            check_pattern_closure(OpKind.COMMUTATOR,
                                  SubspacePattern.from_parts(real="1"), cfg),
            check_pattern_closure(OpKind.ANTICOMMUTATOR,
                                  SubspacePattern.from_parts(real="12"), cfg),
        ]
        for r in controls:
            if r.status is not CheckStatus.FAIL:
                bad.append((str(sig), r.name, "control did not fail"))
    ok = not bad
    _line(4, ok, "43 closed subspaces x {(4,0),(2,2),(1,3)}, every real "
                 "basis pair through the blade-pair census, zero leakage; "
                 "2 negative controls fail")
    assert not bad, bad


def test_criterion_05_star_relations_and_lie_subalgebras():
    bad = []
    for sig in (S22, Signature(4, 1)):
        cfg = CheckConfig(sig=sig)
        reports = [check_theorem5(cfg)] + check_theorem6(cfg)
        for r in reports:
            if r.status is not CheckStatus.PASS:
                bad.append((str(sig), r.name, r.to_dict()))
    ok = not bad
    _line(5, ok, "conjugation bracket relations and the four Lie "
                 "subalgebras at (2,2) and (4,1), exact on every real basis "
                 "pair")
    assert not bad, bad


def test_criterion_06_exponentials_land_in_groups():
    bad = []
    for sig in (Signature(4, 0), S22):
        cfg = CheckConfig(sig=sig, samples=100)
        for r in check_theorem7(cfg):
            if r.status is not CheckStatus.PASS:
                bad.append((str(sig), r.name, r.to_dict()))
    ok = not bad
    _line(6, ok, "exp of 4 Lie subalgebra rows, 100 samples at (4,0) and "
                 "(2,2): inside the ambient exactly, pseudo-unitary to 1e-9")
    assert not bad, bad


def test_criterion_07_quaternion_algebra():
    sig = Signature(0, 2)
    e = Multivector.scalar(sig, 1)
    i = Multivector.basis_blade(sig, 0b01, 1)
    j = Multivector.basis_blade(sig, 0b10, 1)
    k = i.geometric_product(j)
    gp = lambda a, b: a.geometric_product(b)
    relations = [
        (gp(i, i), -e), (gp(j, j), -e), (gp(k, k), -e),
        (gp(i, j), k), (gp(j, i), -k),
        (gp(j, k), i), (gp(k, j), -i),
        (gp(k, i), j), (gp(i, k), -j),
        (gp(gp(i, j), k), -e),
    ]
    ok = all(lhs == rhs for lhs, rhs in relations)
    _line(7, ok, "Cl(0,2) realizes the quaternion unit relations exactly")
    assert ok


def _random_float_mv(sig, rng, scale=1.0):
    terms = {}
    for mask in sig.blades():
        re = (rng.next_u64() >> 11) * 2.0 ** -52 - 1.0
        im = (rng.next_u64() >> 11) * 2.0 ** -52 - 1.0
        terms[mask] = complex(re * scale, im * scale)
    return Multivector(sig, Field.COMPLEX, terms)


def _rel_ok(delta, tol, *references):
    scale = 1.0 + sum(r.inf_norm() for r in references)
    return delta.inf_norm() <= tol * scale


def test_criterion_08_structural_properties():
    # exact half: integer coefficients
    rng = SplitMix64(derive_subseed(8, "acceptance:structure:int"))
    full = SubspacePattern.from_parts(real="0123", imag="0123")
    from quatype.verify import sample_pattern_mv
    exact_bad = 0
    for _ in range(200):
        u = sample_pattern_mv(S22, full, rng)
        v = sample_pattern_mv(S22, full, rng)
        w = sample_pattern_mv(S22, full, rng)
        uv = u.geometric_product(v)
        if uv.scale(2) != u.commutator(v) + u.anticommutator(v):
            exact_bad += 1
        if uv.conjugate() != v.conjugate().geometric_product(u.conjugate()):
            exact_bad += 1
        if u.conjugate().conjugate() != u:
            exact_bad += 1
        jacobi = (u.commutator(v.commutator(w))
                  + v.commutator(w.commutator(u))
                  + w.commutator(u.commutator(v)))
        if not jacobi.is_zero(0.0):
            exact_bad += 1
        total = Multivector.zero(S22, Field.COMPLEX)
        for k in range(5):
            total = total + u.grade_project(k)
        if total != u:
            exact_bad += 1
        if any(not u.grade_project(k).grade_project(l).is_zero(0.0)
               for k in range(5) for l in range(5) if k != l):
            exact_bad += 1

    # float half: 10,000 random inputs, relative 1e-12
    rng = SplitMix64(derive_subseed(8, "acceptance:structure:float"))
    tol = 1e-12
    float_bad = 0
    drawn = 0
    while drawn < 10_000:
        u = _random_float_mv(S22, rng)
        v = _random_float_mv(S22, rng)
        w = _random_float_mv(S22, rng)
        drawn += 3
        uv = u.geometric_product(v)
        comm_sum = u.commutator(v) + u.anticommutator(v)
        if not _rel_ok(uv.scale(2) - comm_sum, tol, uv, comm_sum):
            float_bad += 1
        star = v.conjugate().geometric_product(u.conjugate())
        if not _rel_ok(uv.conjugate() - star, tol, uv, star):
            float_bad += 1
        if u.conjugate().conjugate() != u:
            float_bad += 1
        j1 = u.commutator(v.commutator(w))
        j2 = v.commutator(w.commutator(u))
        j3 = w.commutator(u.commutator(v))
        if not _rel_ok(j1 + j2 + j3, tol, j1, j2, j3):
            float_bad += 1
        total = Multivector.zero(S22, Field.COMPLEX)
        for k in range(5):
            total = total + u.grade_project(k)
        if total != u:
            float_bad += 1
    ok = exact_bad == 0 and float_bad == 0
    _line(8, ok, "product/bracket identity, conjugation laws, Jacobi, "
                 "projection completeness: exact on integers, 1e-12 "
                 f"relative on 10000 float inputs at (2,2)")
    assert exact_bad == 0
    assert float_bad == 0


def test_criterion_09_low_rank_coincidence():
    bad = []
    for sig in all_signatures(3):
        r = check_rank_coincidence(CheckConfig(sig=sig, samples=100))
        if r.status is not CheckStatus.PASS:
            bad.append((str(sig), r.to_dict()))
    ok = not bad
    _line(9, ok, "type projections coincide with grade projections for "
                 "every signature with n<=3, exhaustive over blades")
    assert not bad, bad


def test_criterion_10_byte_identical_reports():
    cmd = [sys.executable, "-m", "quatype", "verify",
           "--suite", "all", "--seed", "42", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _line(10, ok, "two `verify --suite all --seed 42` runs emit "
                  "byte-identical JSON")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["fail"] == 0
