"""Sweep the verification suite over a range of signatures.

Runs every check at each signature with p+q <= --max-n and prints one row
per signature.  Useful for timing the exact kernel as n grows.

    python3 scripts/full_report.py --max-n 6 --samples 100
"""

import argparse
import sys
import time

from quatype.blades import Signature
from quatype.verify import SUITE_NAMES, CheckConfig, CheckStatus, run_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=5, help="largest p+q to sweep")
    ap.add_argument("--min-n", type=int, default=1, help="smallest p+q to sweep")
    ap.add_argument("--samples", type=int, default=CheckConfig.samples)
    ap.add_argument("--seed", type=int, default=CheckConfig.seed)
    ap.add_argument("--suite", default="all", choices=SUITE_NAMES)
    args = ap.parse_args(argv)
    try:
        configs = [CheckConfig(sig=Signature(p, n - p), seed=args.seed,
                               samples=args.samples)
                   for n in range(args.min_n, args.max_n + 1) for p in range(n + 1)]
        if not configs:  # an empty sweep would pass vacuously
            raise ValueError(f"no signature with {args.min_n} <= p+q <= {args.max_n}")
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'signature':<10} {'pass':>5} {'fail':>5} {'skip':>5} {'cases':>9} "
          f"{'time':>8}")
    grand = {status: 0 for status in CheckStatus}
    failures = []
    for cfg in configs:
        sig = cfg.sig
        t0 = time.monotonic()
        reports = run_suite([args.suite], cfg)
        dt = time.monotonic() - t0
        counts = {status: 0 for status in CheckStatus}
        for r in reports:
            counts[r.status] += 1
            grand[r.status] += 1
            if r.status is CheckStatus.FAIL:
                failures.append((sig, r))
        cases = sum(r.cases_run for r in reports)
        print(f"{str(sig):<10} {counts[CheckStatus.PASS]:>5} "
              f"{counts[CheckStatus.FAIL]:>5} "
              f"{counts[CheckStatus.SKIPPED]:>5} {cases:>9} {dt:>7.2f}s")

    print(f"\ntotal: {grand[CheckStatus.PASS]} pass, {grand[CheckStatus.FAIL]} "
          f"fail, {grand[CheckStatus.SKIPPED]} skipped")
    for sig, r in failures:
        print(f"  FAIL {sig} {r.name}: {r.notes or ''}")
        if r.counterexample is not None:
            ce = r.counterexample
            print(f"       {ce.operation}({ce.lhs}"
                  f"{', ' + ce.rhs if ce.rhs else ''}) -> {ce.component}, "
                  f"magnitude {ce.magnitude:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
