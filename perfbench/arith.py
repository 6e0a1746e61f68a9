"""The `arith` workload: a fixed mix of quatype library calls.

`make_specs(seed)` generates the operands as plain dicts (no quatype
import), `bind(Q, specs)` turns them into calls on the quatype package `Q`,
and `check(spec, output)` judges one serialized output with the reference
arithmetic in `oracle`.  Run as a script, this module is the worker process
that times the calls:

    python3 perfbench/arith.py --src SRC --seed N --seconds T

It prints one JSON object: per-call latencies of every timed round, the
calibration probe of each round (see calib.py), and for each call the
distinct outputs it produced, which the caller checks.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import calib
import oracle

# (n, sizes of the two operands) for products of sparse operands, where no
# sign table exists and every term pair needs its own sign.
SPARSE = ((10, (64, 256)), (12, (128, 128)))
# Dense operands on every blade; these products read the sign table.
DENSE_N = (4, 5, 6, 7, 8)
EXP_N = (4, 7)
BRACKETS = ("gp", "comm", "anticomm")


def _int_coeff(rng: random.Random, field: str) -> complex:
    re = rng.choice((-3, -2, -1, 1, 2, 3))
    im = rng.randint(-3, 3) if field == "C" else 0
    return complex(re, im)


def _signature(rng: random.Random, n: int) -> tuple[int, int]:
    p = rng.randint(0, n)
    return p, n - p


def _spec(kind, sig, field, operands, **extra) -> dict:
    return {"kind": kind, "p": sig[0], "q": sig[1], "field": field,
            "operands": operands, **extra}


def _lie_coeff(mask: int, x: float) -> complex:
    # Lie algebra pattern: imaginary on main types 0 and 1, real on 2 and 3.
    return complex(0.0, x) if oracle.type_of(mask) in (0, 1) else complex(x, 0.0)


def _pattern_element(rng, n, blades=None):
    """Element whose main types each carry a random nonzero coefficient
    class (real, imaginary or complex), on every blade or on ``blades``
    random ones, so that its size does not depend on the seed."""
    classes = [rng.randint(1, 3) for _ in range(4)]
    field = "C" if any(c & 2 for c in classes) else "R"
    masks = range(1 << n)
    if blades is not None:
        masks = sorted(rng.sample(masks, blades))
    u = {}
    for m in masks:
        cls = classes[oracle.type_of(m)]
        re = rng.choice((-3, -2, -1, 1, 2, 3)) if cls & 1 else 0
        im = rng.choice((-3, -2, -1, 1, 2, 3)) if cls & 2 else 0
        u[m] = complex(re, im)
    return field, u


def make_specs(seed: int) -> list[dict]:
    """The op mix of one round, a pure function of ``seed``.  Operand sizes
    are fixed so that only blade choice, signature and coefficients vary
    with the seed."""
    rng = random.Random(f"arith:{seed}")
    specs = []
    for n, (la, lb) in SPARSE:
        sig = _signature(rng, n)
        u = {m: _int_coeff(rng, "C") for m in sorted(rng.sample(range(1 << n), la))}
        v = {m: _int_coeff(rng, "C") for m in sorted(rng.sample(range(1 << n), lb))}
        specs += [_spec(kind, sig, "C", [u, v]) for kind in BRACKETS]
    for n in DENSE_N:
        sig = _signature(rng, n)
        field = "C" if n % 2 == 0 else "R"
        u = {m: _int_coeff(rng, field) for m in range(1 << n)}
        v = {m: _int_coeff(rng, field) for m in range(1 << n)}
        specs += [_spec(kind, sig, field, [u, v]) for kind in BRACKETS]
    for n in EXP_N:
        sig = _signature(rng, n)
        raw = {m: _lie_coeff(m, rng.choice((-3, -2, -1, 1, 2, 3))) for m in range(1 << n)}
        scale = 1.5 / sum(abs(c) for c in raw.values())
        specs.append(_spec("exp", sig, "C", [{m: c * scale for m, c in raw.items()}],
                           form="dense"))
        mask = rng.randrange(1, 1 << n)
        theta = rng.randint(16, 160) / 64
        specs.append(_spec("exp", sig, "C", [{mask: _lie_coeff(mask, theta)}],
                           form="blade"))
    for n, blades in ((6, None), (12, 128)):
        sig = _signature(rng, n)
        field, u = _pattern_element(rng, n, blades)
        specs += [
            _spec("conj", sig, field, [u]),
            _spec("grade", sig, field, [u], k=rng.randint(0, n)),
            _spec("qproj", sig, field, [u], k=rng.randint(0, 3)),
            _spec("detect", sig, field, [u]),
            _spec("pattern", sig, field, [u]),
        ]
    io_sig = _signature(rng, 5)
    fractions = {m: complex(rng.randint(-12, 12) / 8, rng.choice((-5, -3, 3, 5)) / 8)
                 for m in sorted(rng.sample(range(32), 24))}
    io_operands = [(io_sig, "C", fractions)]
    for n, blades in ((6, None), (12, 128)):
        sig = _signature(rng, n)
        field, u = _pattern_element(rng, n, blades)
        io_operands.append((sig, field, u))
    for sig, field, u in io_operands:
        specs += [
            _spec("parse", sig, field, [u], text=oracle.format_text(u)),
            _spec("format", sig, field, [u]),
            _spec("document", sig, field, [u]),
        ]
    return specs


def describe(specs: list[dict]) -> list[str]:
    """One label per call of the mix, for the run record."""
    return [f"{s['kind']}@Cl({s['p']},{s['q']}){s['field']}"
            f"[{'x'.join(str(len(u)) for u in s['operands'])}]" for s in specs]


def _gp(a, b):
    return a.geometric_product(b)


def _comm(a, b):
    return a.commutator(b)


def _anticomm(a, b):
    return a.anticommutator(b)


def _exp(a):
    return a.exp()


def _conj(a):
    return a.conjugate()


def _grade(a, k):
    return a.grade_project(k)


def _qproj(a, k):
    return a.qtype_project(k)


def bind(Q, specs: list[dict]) -> list:
    """One ``(function, args)`` per spec over quatype package ``Q``.  Methods
    and package functions are looked up at call time, so a tracer installed
    after binding sees every call."""
    calls = []
    for s in specs:
        sig = Q.Signature(s["p"], s["q"])
        field = Q.Field(s["field"])
        mvs = tuple(Q.Multivector(sig, field, u) for u in s["operands"])
        kind = s["kind"]
        if kind in ("gp", "comm", "anticomm"):
            fn = {"gp": _gp, "comm": _comm, "anticomm": _anticomm}[kind]
            call = fn, mvs
        elif kind in ("grade", "qproj"):
            call = (_grade if kind == "grade" else _qproj), (mvs[0], s["k"])
        elif kind == "exp":
            call = _exp, mvs
        elif kind == "conj":
            call = _conj, mvs
        elif kind == "detect":
            call = (lambda u: Q.detect_qtype(u)), mvs
        elif kind == "pattern":
            call = (lambda u: Q.pattern_of(u)), mvs
        elif kind == "parse":
            call = (lambda text, sg: Q.parse_expression(text, sg)), (s["text"], sig)
        elif kind == "format":
            call = (lambda u: Q.format_expression(u)), mvs
        elif kind == "document":
            call = (lambda u: Q.mv_from_document(Q.mv_to_document(u))), mvs
        else:
            raise ValueError(f"unknown kind {kind!r}")
        calls.append(call)
    return calls


def serialize(out):
    """JSON-ready form of a call's output."""
    if isinstance(out, str):
        return out
    if hasattr(out, "terms"):
        return {"p": out.sig.p, "q": out.sig.q, "field": out.field.value,
                "terms": [[m, c.real, c.imag] for m, c in sorted(out.terms.items())]}
    if hasattr(out, "classes"):
        return [int(c) for c in out.classes]
    return int(out.mask)


def _terms(out) -> dict:
    return {m: complex(re, im) for m, re, im in out["terms"]}


def check(spec: dict, out, cache: dict) -> str | None:
    """Problem with one serialized output of ``spec``, or None.  ``cache``
    holds reference results per spec across calls."""
    kind, p, n = spec["kind"], spec["p"], spec["p"] + spec["q"]
    u = spec["operands"][0]
    if kind == "format":
        try:
            back = oracle.parse(out, n)
        except ValueError as exc:
            return f"format: {exc}"
        return None if back == u else f"format: text {out[:60]!r} does not parse back"
    if kind == "detect":
        want = oracle.type_mask(u)
        return None if out == want else f"detect: type mask {out}, want {want}"
    if kind == "pattern":
        want = list(oracle.pattern_classes(u))
        return None if out == want else f"pattern: classes {out}, want {want}"
    if not isinstance(out, dict) or (out["p"], out["q"]) != (spec["p"], spec["q"]):
        return f"{kind}: output not a multivector over Cl({spec['p']},{spec['q']})"
    got = _terms(out)
    if kind == "exp":
        if spec["form"] == "blade":
            ((mask, c),) = u.items()
            err = oracle.inf_norm_diff(got, oracle.exp_single_blade(mask, c, p))
        else:
            err = oracle.pseudo_unitary_defect(got, p)
        return None if err <= 1e-9 else f"exp ({spec['form']}): error {err:.3g} > 1e-9"
    key = id(spec)
    if key not in cache:
        v = spec["operands"][1] if len(spec["operands"]) > 1 else None
        want_field = spec["field"]
        if kind == "gp":
            want = oracle.product(u, v, p)
        elif kind == "comm":
            want = oracle.commutator(u, v, p)
        elif kind == "anticomm":
            want = oracle.anticommutator(u, v, p)
        elif kind == "conj":
            want = oracle.conjugate(u)
        elif kind == "grade":
            want = oracle.grade_part(u, spec["k"])
        elif kind == "qproj":
            want = oracle.type_part(u, spec["k"])
        elif kind == "parse":
            want = u
            want_field = "R" if all(c.imag == 0 for c in u.values()) else "C"
        else:  # document round trip
            want = u
        cache[key] = (want_field, want)
    want_field, want = cache[key]
    if out["field"] != want_field:
        return f"{kind}: field {out['field']}, want {want_field}"
    if got != want:
        return f"{kind}: {len(got)} terms differ from the reference ({len(want)} terms)"
    return None


def run_rounds(calls, seconds: float):
    """Closed loop over whole rounds of the mix: one untimed warm-up round,
    then rounds until ``seconds`` have passed, each after a calibration
    probe.  Returns the per-call latencies in ns, round after round, the
    probe seconds of each round, and per call its distinct serialized
    outputs."""
    distinct = [[] for _ in calls]
    first = [None] * len(calls)

    def keep(i, out):
        if first[i] is None or out != first[i]:
            s = serialize(out)
            if s not in distinct[i]:
                distinct[i].append(s)
            if first[i] is None:
                first[i] = out

    for i, (fn, args) in enumerate(calls):
        keep(i, fn(*args))
    latencies, probes = [], []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        probes.append(calib.median_probe())
        for i, (fn, args) in enumerate(calls):
            t0 = clock()
            out = fn(*args)
            latencies.append(clock() - t0)
            keep(i, out)
    return latencies, probes, distinct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the quatype package")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import quatype as Q

    latencies, probes, distinct = run_rounds(bind(Q, make_specs(args.seed)), args.seconds)
    json.dump({"latencies_ns": latencies, "probes_s": probes, "outputs": distinct,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
