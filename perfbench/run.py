"""quatype benchmark: verdict time, library throughput and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a quatype checkout; quatype is imported from that
checkout's own `src/` (never an installed copy), and its path is recorded.

Workloads (each a closed loop with one client; the seed is the only source
of inputs):

- verify-small: one operation is one fresh `python -m quatype verify --suite
  all --format json` process at default --samples.  The seed picks a cycle
  of the five signatures with p+q = 4 (where the exhaustive strategy
  applies) and one verdict seed for each; the run repeats whole cycles.
- arith: one operation is one library call of a fixed mix (see arith.py),
  repeated in whole rounds in a worker process; no verifier.

Every time reported is scaled to the host's full speed by calib.py: the
host this benchmark was built on runs the same code up to 2x slower in
episodes of seconds to minutes, and a fixed calibration loop timed beside
the work slows by nearly the same factor.  Raw wall times are kept in the
run record.  With --trace 0 the run prints the end-to-end metrics:

- setup_s: median over fresh interpreters of `import quatype` (plus
  `quatype.cli` for verify-small) and the sign-table builds the workload
  needs, triggered by one product per signature.
- op_p50_ms, op_tail_ms: over the operations of the workload (the five
  verdicts of the cycle, or the calls of the mix), each timed as the
  median of its repeats in the run: the median, and the highest percentile
  with at least ten operations beyond it (the maximum when there are fewer
  than eleven); the record states the count.
- ops_per_s: operations per second, from the mean operation time.
- verdict_s: mean seconds per verdict.  On verify-small a verdict is one
  process, from spawn to exit; on arith it is one whole round of the mix,
  every output of which the oracle judges.
- peak_rss_mb: peak resident set of the processes that ran quatype.

Every output is judged by oracle.py, which does not import quatype, and the
negative controls in controls.py run untimed in every run.  Failed
operations (an exception, an unexpected exit code or an oracle mismatch)
are counted in the result's `failed` against `attempted`.

With --trace 1 the run performs a fixed amount of work for the seed, first
untraced and then with tracer.py wrapped around quatype's functions, and
prints the per-layer metrics.  Every `.s` metric is self time (time in the
function minus time in traced functions it called), except the
`verify.leaf.*` times, which are the wall time of `run_suite([leaf], cfg)`.
Spans and aggregates are written to perfbench/out/.

The last line of stdout is the result object; the line before it is the
run record (seed, generated plan, quatype path, sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import arith
import calib
import controls
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SMALL_SIGS = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
WORKLOADS = ("verify-small", "arith")

SETUP_RUNS = 11
MONITOR_PERIOD_S = 0.02
VERDICT_TIMEOUT_S = 170
# Traced runs do a fixed amount of work (one verdict cycle, or this many
# rounds of the arith mix), so their counts repeat exactly.
TRACE_ROUNDS = 8

# Prints the set-up seconds and the calibration probe around them.
SETUP_SNIPPET = """
import time
import calib
before = calib.median_probe()
t0 = time.perf_counter()
import {module}
from quatype import Multivector, Signature
for p, q in {sigs!r}:
    e = Multivector.basis_blade(Signature(p, q), 1)
    e.geometric_product(e)
seconds = time.perf_counter() - t0
print(seconds, (before + calib.median_probe()) / 2)
"""

LEAVES = (
    "axioms:anticomm", "axioms:comm", "grades",
    "tables:product", "tables:comm", "tables:anticomm",
    "closures", "theorem5", "theorem6", "theorem7", "wc", "rank",
)


def child_env(*extra: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC, *extra))
    return env


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and how many
    samples lie beyond the value returned (fewer when the run is short)."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], len(ordered) - 1 - idx


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.record: dict = {"workload": workload, "seed": seed, "seconds": seconds}
        self.specs = arith.make_specs(seed) if workload == "arith" else []

    def judge(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    # -- shared parts ---------------------------------------------------

    def signatures(self) -> list[tuple[int, int]]:
        if self.workload == "arith":
            return sorted({(s["p"], s["q"]) for s in self.specs
                           if s["p"] + s["q"] <= 8})
        return list(SMALL_SIGS)

    def fresh_setup_s(self, module: str, sigs, runs: int) -> float:
        """Median scaled set-up seconds of ``runs`` fresh interpreters, after
        one untimed warm-up start."""
        snippet = SETUP_SNIPPET.format(module=module, sigs=list(sigs))
        times = []
        for i in range(runs + 1):
            proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                                  env=child_env(HERE), capture_output=True, text=True,
                                  timeout=VERDICT_TIMEOUT_S)
            ok = proc.returncode == 0
            self.judge([] if ok else [f"setup exited {proc.returncode}: "
                                      f"{proc.stderr.strip()[-200:]}"])
            if ok and i > 0:
                seconds, probe_s = map(float, proc.stdout.split()[-2:])
                times.append(calib.scale(seconds, probe_s))
        return statistics.median(times) if times else float("nan")

    def setup_s(self) -> float:
        module = "quatype" if self.workload == "arith" else "quatype.cli"
        return self.fresh_setup_s(module, self.signatures(), SETUP_RUNS)

    def run_controls(self, Q) -> None:
        p, q = self.signatures()[0]
        results = controls.run_controls(Q, p, q, self.seed)
        self.record["controls"] = {"signature": [p, q], "count": len(results)}
        for problem in results:
            self.judge([problem] if problem else [])

    # -- verify workloads -----------------------------------------------

    def verdict_cycle(self) -> list[tuple[int, int, int]]:
        """(p, q, verify seed) for each signature, starting at one the seed
        picks."""
        rng = random.Random(f"{self.workload}:{self.seed}")
        sigs = self.signatures()
        start = rng.randrange(len(sigs))
        return [(*sigs[(start + i) % len(sigs)], rng.randrange(1 << 32))
                for i in range(len(sigs))]

    @staticmethod
    def verify_argv(p: int, q: int, vseed: int) -> list[str]:
        return ["verify", "--p", str(p), "--q", str(q), "--suite", "all",
                "--format", "json", "--seed", str(vseed)]

    def verify_untraced(self) -> dict:
        """Whole cycles of verdicts until ``seconds`` have passed.  Verdicts
        run pinned to one CPU beside a calibration monitor (calib.py)."""
        cycle = self.verdict_cycle()
        cpu = min(os.sched_getaffinity(0))
        mon = subprocess.Popen(
            [sys.executable, str(HERE / "calib.py"), str(cpu), str(MONITOR_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        spans = []
        try:
            start = time.monotonic()
            while len(spans) % len(cycle) or time.monotonic() - start < self.seconds:
                p, q, vseed = cycle[len(spans) % len(cycle)]
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, "-m", "quatype", *self.verify_argv(p, q, vseed)],
                    cwd=ROOT, env=child_env(), capture_output=True, text=True,
                    timeout=VERDICT_TIMEOUT_S,
                    preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
                spans.append((t0, time.monotonic()))
                self.judge(oracle.check_verify_output(proc.stdout, proc.returncode, p, q))
        finally:
            samples, _ = mon.communicate(timeout=VERDICT_TIMEOUT_S)
        samples = json.loads(samples)
        scaled = []
        for t0, t1 in spans:
            during = [s for t, s in samples if t0 <= t <= t1]
            scaled.append(calib.scale(t1 - t0, statistics.fmean(during)))
        self.record["cycle"] = [list(entry) for entry in cycle]
        self.record["verdict_wall_s"] = [t1 - t0 for t0, t1 in spans]
        self.record["verdict_scaled_s"] = scaled
        per_verdict = [statistics.median(scaled[i::len(cycle)]) for i in range(len(cycle))]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return self.latency_metrics([x * 1e3 for x in per_verdict],
                                    statistics.fmean(per_verdict), peak_kb)

    def latency_metrics(self, latencies_ms, verdict_s, peak_kb) -> dict:
        """End-to-end metrics from the latency of each operation of the
        workload (a verdict of the cycle, or a call of the mix), each the
        median of its scaled repeats in the run."""
        tail_ms, beyond = tail(latencies_ms)
        self.record["operations"] = len(latencies_ms)
        self.record["tail_operations_beyond"] = beyond
        return {
            "setup_s": (self.setup, "s"),
            "verdict_s": (verdict_s, "s"),
            "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(latencies_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    def cli_main(self, argv: list[str]) -> tuple[int, str]:
        from quatype import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def verify_traced(self, Q, tracer) -> dict:
        from quatype import cli

        plan = self.verdict_cycle()
        self.record["cycle"] = [list(x) for x in plan]
        clear = getattr(getattr(Q.blades, "sign_table", None), "cache_clear", None)
        untraced = 0.0
        for p, q, vseed in plan:
            if clear:
                clear()
            t0 = time.perf_counter()
            rc, out = self.cli_main(self.verify_argv(p, q, vseed))
            untraced += time.perf_counter() - t0
            self.judge(oracle.check_verify_output(out, rc, p, q))

        run_suite = cli.run_suite

        def leaf_run_suite(names, cfg):
            def body():
                reports = []
                for leaf in Q.verify.resolve_suite(names):
                    tracer.leaf = leaf
                    try:
                        reports += tracer.call(f"verify.leaf.{leaf}", run_suite, [leaf], cfg)
                    finally:
                        tracer.leaf = None
                return reports
            return tracer.call("verify.run_suite", body)

        traced = 0.0
        tracer.install(Q)
        cli.run_suite = leaf_run_suite
        try:
            for p, q, vseed in plan:
                if clear:
                    clear()
                t0 = time.perf_counter()
                rc, out = tracer.call("cli.main", self.cli_main,
                                      self.verify_argv(p, q, vseed))
                traced += time.perf_counter() - t0
                self.judge(oracle.check_verify_output(out, rc, p, q))
        finally:
            cli.run_suite = run_suite
            tracer.uninstall()
        return {"untraced_s": untraced, "traced_s": traced}

    # -- arith ----------------------------------------------------------

    def judge_outputs(self, outputs: list[list]) -> None:
        cache: dict = {}
        for spec, distinct in zip(self.specs, outputs):
            if not distinct:
                self.judge([f"{spec['kind']}: no output recorded"])
            for out in distinct:
                problem = arith.check(spec, out, cache)
                self.judge([problem] if problem else [])

    def arith_untraced(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "arith.py"), "--src", str(SRC),
             "--seed", str(self.seed), "--seconds", str(self.seconds)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=VERDICT_TIMEOUT_S)
        self.record["op_mix"] = arith.describe(self.specs)
        if proc.returncode != 0:
            self.judge([f"arith worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}"])
            return {}
        doc = json.loads(proc.stdout)
        self.judge_outputs(doc["outputs"])
        latencies, probes = doc["latencies_ns"], doc["probes_s"]
        self.attempted += len(latencies)
        width = len(self.specs)
        scaled_ms = [calib.scale(t / 1e6, probes[i // width])
                     for i, t in enumerate(latencies)]
        per_call = [statistics.median(scaled_ms[i::width]) for i in range(width)]
        self.record["rounds"] = len(probes)
        self.record["call_ms"] = per_call
        self.record["call_wall_ms"] = [statistics.median(latencies[i::width]) / 1e6
                                       for i in range(width)]
        return self.latency_metrics(per_call, sum(per_call) / 1e3, doc["maxrss_kb"])

    def arith_traced(self, Q, tracer) -> dict:
        calls = arith.bind(Q, self.specs)
        self.record["op_mix"] = arith.describe(self.specs)
        clear = getattr(getattr(Q.blades, "sign_table", None), "cache_clear", None)
        distinct = [[] for _ in calls]

        def rounds(call):
            t0 = time.perf_counter()
            for _ in range(TRACE_ROUNDS):
                for i, (fn, args) in enumerate(calls):
                    s = arith.serialize(call(i, fn, args))
                    if s not in distinct[i]:
                        distinct[i].append(s)
            return time.perf_counter() - t0

        if clear:
            clear()
        untraced = rounds(lambda i, fn, args: fn(*args))
        if clear:
            clear()
        tracer.install(Q)
        try:
            traced = rounds(lambda i, fn, args: tracer.call(
                f"arith.{self.specs[i]['kind']}", fn, *args))
        finally:
            tracer.uninstall()
        self.judge_outputs(distinct)
        return {"untraced_s": untraced, "traced_s": traced}

    # -- per-layer metrics ----------------------------------------------

    def layer_metrics(self, tracer, timing: dict) -> dict:
        t = tracer
        pairs = t.counts["multivector.product.term_pairs"]
        leaf_s = {leaf: t.total_s(f"verify.leaf.{leaf}") for leaf in LEAVES}
        m = {
            "blades.canonical_sign.calls": (t.calls("blades.canonical_sign"), "count"),
            "blades.canonical_sign.s": (t.self_s("blades.canonical_sign"), "s"),
            "blades.sign_table.builds": (t.counts["blades.sign_table.builds"], "count"),
            "blades.sign_table.s": (float(t.counts["blades.sign_table.s"]), "s"),
            "multivector.product.calls": (t.calls("multivector.product"), "count"),
            "multivector.product.term_pairs": (pairs, "count"),
            "multivector.product.s": (t.self_s("multivector.product"), "s"),
            "multivector.product.ns_per_term_pair": (
                t.total_s("multivector.product") / pairs * 1e9 if pairs else 0.0, "ns"),
            "multivector.bracket.calls": (t.calls("multivector.bracket"), "count"),
            "multivector.bracket.s": (t.self_s("multivector.bracket"), "s"),
            "multivector.exp.calls": (t.calls("multivector.exp"), "count"),
            "multivector.exp.s": (t.self_s("multivector.exp"), "s"),
            "multivector.exp.products": (t.counts["multivector.exp.products"], "count"),
            "multivector.construct.calls": (t.calls("multivector.construct"), "count"),
            "multivector.construct.s": (t.self_s("multivector.construct"), "s"),
            "multivector.qtype_project.calls": (t.calls("multivector.qtype_project"), "count"),
            "multivector.qtype_project.s": (t.self_s("multivector.qtype_project"), "s"),
            "qtype.leakage.calls": (t.calls("qtype.leakage"), "count"),
            "qtype.leakage.s": (t.self_s("qtype.leakage"), "s"),
            "qtype.matches.calls": (t.calls("qtype.matches"), "count"),
            "qtype.detect_qtype.calls": (t.calls("qtype.detect_qtype"), "count"),
            "qtype.detect_qtype.s": (t.self_s("qtype.detect_qtype"), "s"),
            "verify.sample.calls": (t.calls("verify.sample"), "count"),
            "verify.sample.s": (t.self_s("verify.sample"), "s"),
            "verify.rng.draws": (t.counts["verify.rng.draws"], "count"),
        }
        for leaf in LEAVES:
            key = leaf.replace(":", "-")
            m[f"verify.leaf.{key}.s"] = (leaf_s[leaf], "s")
            m[f"verify.leaf.{key}.term_pairs"] = (t.leaf_pairs[leaf], "count")
        m.update({
            "exprio.parse.calls": (t.calls("exprio.parse"), "count"),
            "exprio.parse.s": (t.self_s("exprio.parse"), "s"),
            "exprio.format.calls": (t.calls("exprio.format"), "count"),
            "exprio.format.s": (t.self_s("exprio.format"), "s"),
            "exprio.document.s": (t.self_s("exprio.document"), "s"),
            "cli.import_s": (self.cli_import_s(), "s"),
            "cli.overhead_s": (t.total_s("cli.main") - t.total_s("verify.run_suite"), "s"),
            "trace.overhead_ratio": (timing["traced_s"] / timing["untraced_s"], "ratio"),
        })
        return m

    def cli_import_s(self) -> float:
        return self.fresh_setup_s("quatype.cli", (), 3)

    def write_trace(self, tracer, timing: dict) -> None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.workload}-seed{self.seed}.json"
        doc = {
            "record": self.record,
            "timing": timing,
            "aggregates": {name: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                           for name, a in sorted(tracer.agg.items())},
            "counts": dict(tracer.counts),
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                      for s in tracer.spans],
        }
        path.write_text(json.dumps(doc))
        self.record["trace_file"] = str(path.relative_to(ROOT))

    # -- entry ----------------------------------------------------------

    def execute(self, trace: bool) -> dict:
        import quatype as Q
        from tracer import Tracer

        self.record["quatype_file"] = Q.__file__
        self.record["python"] = platform.python_version()
        self.run_controls(Q)
        if trace:
            tracer = Tracer()
            if self.workload == "arith":
                timing = self.arith_traced(Q, tracer)
            else:
                timing = self.verify_traced(Q, tracer)
            metrics = self.layer_metrics(tracer, timing)
            self.write_trace(tracer, timing)
            return metrics
        self.setup = self.setup_s()
        if self.workload == "arith":
            return self.arith_untraced()
        return self.verify_untraced()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quatype benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quatype" / "__init__.py").is_file():
        print(f"error: no quatype package under {SRC}; run from a quatype checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds)
    metrics = run.execute(bool(args.trace))
    run.record["problems"] = run.problems[:20]
    print(json.dumps({"record": run.record}))
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
