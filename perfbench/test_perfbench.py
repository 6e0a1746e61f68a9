"""Tests of the benchmark's own oracle, controls and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import arith  # noqa: E402
import controls  # noqa: E402
import oracle  # noqa: E402
import quatype as Q  # noqa: E402
from run import Run, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def _mv(sig, u, field="C"):
    return Q.Multivector(sig, Q.Field(field), u)


def _random_element(rng, n, terms=None):
    masks = range(1 << n) if terms is None else rng.sample(range(1 << n), terms)
    return {m: complex(rng.randint(-3, 3), rng.randint(-3, 3)) for m in masks}


def test_blade_sign_agrees_with_quatype_on_every_pair_up_to_n4():
    for n in range(1, 5):
        for p in range(n + 1):
            sig = Q.Signature(p, n - p)
            for a in range(1 << n):
                for b in range(1 << n):
                    assert (oracle.blade_sign(a, b, p), a ^ b) == \
                        Q.canonical_sign(a, b, sig)


def test_reference_arithmetic_agrees_with_quatype():
    rng = random.Random(7)
    for p, q, terms in ((2, 2, None), (1, 4, None), (4, 6, 20), (5, 7, 12)):
        sig = Q.Signature(p, q)
        u = oracle.combine(_random_element(rng, p + q, terms), {}, 1)
        v = oracle.combine(_random_element(rng, p + q, terms), {}, 1)
        a, b = _mv(sig, u), _mv(sig, v)
        assert dict(a.geometric_product(b).terms) == oracle.product(u, v, p)
        assert dict(a.commutator(b).terms) == oracle.commutator(u, v, p)
        assert dict(a.anticommutator(b).terms) == oracle.anticommutator(u, v, p)
        assert dict(a.conjugate().terms) == oracle.conjugate(u)
        for k in range(4):
            assert dict(a.qtype_project(k).terms) == oracle.type_part(u, k)
        assert Q.detect_qtype(a).mask == oracle.type_mask(u)


def test_single_blade_exp_closed_form_matches_quatype():
    for p, q, mask, coeff in ((2, 2, 0b0011, 0.7), (1, 3, 0b0110, -1.3),
                              (0, 4, 0b1111, 0.9j), (3, 0, 0b0001, 2.2j)):
        sig = Q.Signature(p, q)
        got = dict(_mv(sig, {mask: complex(coeff)}).exp().terms)
        want = oracle.exp_single_blade(mask, complex(coeff), p)
        assert oracle.inf_norm_diff(got, want) < 1e-12


def test_expression_text_round_trips_through_both_parsers():
    rng = random.Random(3)
    sig = Q.Signature(6, 5)
    u = oracle.combine(_random_element(rng, 11, 30), {}, 1)
    u[0b101] = complex(0.375, -1.25)
    text = oracle.format_text(u)
    assert oracle.parse(text, 11) == u
    assert dict(Q.parse_expression(text, sig).terms) == u
    assert oracle.parse(Q.format_expression(_mv(sig, u)), 11) == u


def test_oracle_rejects_a_sign_flipped_product():
    spec = next(s for s in arith.make_specs(5) if s["kind"] == "gp")
    fn, args = arith.bind(Q, [spec])[0]
    out = arith.serialize(fn(*args))
    assert arith.check(spec, out, {}) is None
    flipped = json.loads(json.dumps(out))
    term = flipped["terms"][len(flipped["terms"]) // 2]
    term[1], term[2] = -term[1], -term[2]
    assert arith.check(spec, flipped, {}) is not None


def test_every_arith_output_passes_the_oracle():
    specs = arith.make_specs(11)
    cache = {}
    for spec, (fn, args) in zip(specs, arith.bind(Q, specs)):
        assert arith.check(spec, arith.serialize(fn(*args)), cache) is None, spec["kind"]


def test_verify_output_check_pins_verdicts_not_notes():
    argv = ["verify", "--p", "2", "--q", "2", "--samples", "2", "--format", "json"]
    rc, out = Run("verify-small", 0, 1).cli_main(argv)
    assert oracle.check_verify_output(out, rc, 2, 2) == []
    doc = json.loads(out)
    doc["reports"][0]["notes"] = "changed evidence text"
    doc["reports"][0]["cases_run"] += 1
    assert oracle.check_verify_output(json.dumps(doc), 0, 2, 2) == []
    doc["reports"][5]["status"] = "fail"
    assert oracle.check_verify_output(json.dumps(doc), 0, 2, 2)
    assert oracle.check_verify_output(out, 1, 2, 2)
    assert oracle.check_verify_output(out, 0, 3, 1)


def test_negative_controls_fail_for_their_stated_reasons():
    for p, q in ((2, 2), (0, 4), (4, 3)):
        assert controls.run_controls(Q, p, q, seed=9) == [None, None, None]


def test_control_flags_an_axiom_check_that_ignores_its_rule():
    class Vacuous:
        def __getattr__(self, name):
            return getattr(Q, name)

        @staticmethod
        def check_quaternion_axioms(op, cfg, rule=None):
            return Q.check_quaternion_axioms(op, cfg)

    assert controls.corrupted_axioms(Vacuous(), Q.Signature(2, 2), 1) is not None


def test_tracer_counts_and_restores():
    sig = Q.Signature(2, 1)
    a = _mv(sig, {1: 1, 2: 2, 3: 1})
    b = _mv(sig, {0: 1, 4: 1})
    original = Q.Multivector.geometric_product
    tracer = Tracer()
    tracer.install(Q)
    try:
        a.commutator(b)
        Q.detect_qtype(a)
    finally:
        tracer.uninstall()
    assert Q.Multivector.geometric_product is original
    assert tracer.calls("multivector.bracket") == 1
    assert tracer.calls("multivector.product") == 2
    assert tracer.counts["multivector.product.term_pairs"] == 12
    assert tracer.calls("qtype.detect_qtype") == 1
    bracket = tracer.agg["multivector.bracket"]
    assert bracket[2] <= bracket[1] - tracer.total_s("multivector.product") + 1e-9


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(i) for i in range(100)]) == (89.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 0)
