"""Negative controls: checks that must fail, run untimed in every run.

A speed-up of the verifier could come from a check that no longer looks at
anything.  Each control hands quatype a claim that is false and requires a
FAIL whose counterexample the reference arithmetic in `oracle` confirms, so
a vacuous check shows as a failed run.
"""

from __future__ import annotations

import random

import oracle


def _witness(report, n: int, name: str):
    if report.status.value != "fail":
        return None, f"{name}: status {report.status.value}, want fail"
    ce = report.counterexample
    if ce is None or ce.rhs is None:
        return None, f"{name}: failed without a concrete counterexample"
    try:
        return (oracle.parse(ce.lhs, n), oracle.parse(ce.rhs, n), ce.magnitude), None
    except ValueError as exc:
        return None, f"{name}: counterexample does not parse: {exc}"


def corrupted_axioms(Q, sig, seed: int) -> str | None:
    """`check_quaternion_axioms` with every commutator target flipped in
    its low bit must fail, on a pair whose bracket the reference puts
    outside the corrupted target."""
    name = "control:axioms-corrupted-rule"
    n = sig.n

    def rule(op, a, b):
        true_target = a ^ b ^ (2 if op is Q.OpKind.COMMUTATOR else 0)
        return true_target ^ 1

    cfg = Q.CheckConfig(sig=sig, seed=seed, samples=16)
    report = Q.check_quaternion_axioms(Q.OpKind.COMMUTATOR, cfg, rule=rule)
    got, problem = _witness(report, n, name)
    if problem:
        return problem
    u, v, magnitude = got
    tu, tv = oracle.type_mask(u), oracle.type_mask(v)
    if bin(tu).count("1") != 1 or bin(tv).count("1") != 1:
        return f"{name}: counterexample operands are not of single main types"
    corrupted = rule(Q.OpKind.COMMUTATOR, tu.bit_length() - 1, tv.bit_length() - 1)
    w = oracle.commutator(u, v, sig.p)
    leak = max((abs(c.real) + abs(c.imag) for m, c in w.items()
                if oracle.type_of(m) != corrupted), default=0.0)
    if leak == 0:
        return f"{name}: reference bracket lies inside the corrupted target"
    if abs(leak - magnitude) > 1e-9 * max(1.0, leak):
        return f"{name}: reported magnitude {magnitude}, reference {leak}"
    return None


def open_product_closure(Q, sig, seed: int) -> str | None:
    """Real type 1 is not closed under the geometric product; the check must
    fail with a pair whose reference product leaks out of the pattern."""
    name = "control:closure-product-real-1"
    cfg = Q.CheckConfig(sig=sig, seed=seed, samples=16)
    pattern = Q.SubspacePattern.from_parts(real="1")
    report = Q.check_pattern_closure(Q.OpKind.GEOMETRIC, pattern, cfg)
    got, problem = _witness(report, sig.n, name)
    if problem:
        return problem
    u, v, magnitude = got
    if oracle.leakage(u, "1", "") or oracle.leakage(v, "1", ""):
        return f"{name}: counterexample operands lie outside real type 1"
    leak = oracle.leakage(oracle.product(u, v, sig.p), "1", "")
    if leak == 0:
        return f"{name}: reference product stays inside real type 1"
    if abs(leak - magnitude) > 1e-9 * max(1.0, leak):
        return f"{name}: reported magnitude {magnitude}, reference {leak}"
    return None


def flipped_product(Q, sig, seed: int) -> str | None:
    """The product oracle must accept quatype's product and reject the same
    product with one term's sign flipped."""
    name = "control:oracle-rejects-flipped-sign"
    rng = random.Random(f"control:{seed}")
    n = sig.n
    u = {m: complex(rng.choice((-2, -1, 1, 2)), 0) for m in range(1 << n)}
    v = {m: complex(rng.choice((-2, -1, 1, 2)), 0) for m in range(1 << n)}
    field = Q.Field.REAL
    w = Q.Multivector(sig, field, u).geometric_product(Q.Multivector(sig, field, v))
    got = dict(w.terms)
    want = oracle.product(u, v, sig.p)
    if got != want:
        return f"{name}: quatype product disagrees with the reference"
    flip = rng.choice(sorted(got))
    got[flip] = -got[flip]
    if got == want:
        return f"{name}: oracle accepted a sign-flipped product"
    return None


CONTROLS = (corrupted_axioms, open_product_closure, flipped_product)


def run_controls(Q, p: int, q: int, seed: int) -> list[str | None]:
    """One entry per control at Cl(p, q): None when it failed as it should,
    else the problem."""
    sig = Q.Signature(p, q)
    results = []
    for control in CONTROLS:
        try:
            results.append(control(Q, sig, seed))
        except Exception as exc:  # a control that crashes is a failed control
            results.append(f"{control.__name__}: {type(exc).__name__}: {exc}")
    return results
