"""Check a dense integer product and its brackets against the pair loop.

Multiplies two seeded elements u, v of Cl(p,q) with an integer coefficient
on every blade, through the product's matrix path and through the public
product, and compares every part's float.hex with the pair loop's uv, an
independent summation of the same exact integers.  The public commutator
and anticommutator (one matrix pass each, while 2 * l1(u) * l1(v) * D <
2**53) are compared with the pair loop's uv - vu and uv + vu.  Prints the
time of each and exits 1 on any difference.

    python3 scripts/dense_product_check.py --p 6 --q 6 --seed 1
"""

import argparse
import random
import sys
import time

from quatype.blades import Signature
from quatype._matrix import matrix_product
from quatype.multivector import Field, Multivector, _pair_product


def _bits(terms) -> list:
    return [(m, c.real.hex(), c.imag.hex()) for m, c in terms.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=6, help="generators squaring to +1")
    ap.add_argument("--q", type=int, default=6, help="generators squaring to -1")
    ap.add_argument("--seed", type=int, default=1, help="seed of the coefficients")
    args = ap.parse_args(argv)
    try:
        sig = Signature(args.p, args.q)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    u, v = (Multivector(sig, Field.COMPLEX, {
        m: complex(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3))
        for m in sig.blades()}) for _ in range(2))
    print(f"{sig} seed {args.seed}: {len(u.terms)} x {len(v.terms)} integer terms")
    results = {}
    for name, run in (
        ("pair loop", lambda: _pair_product(sig, u.terms, v.terms)),
        ("matrix path", lambda: matrix_product(sig, u.terms, v.terms)),
        ("product", lambda: u.geometric_product(v).terms),
        ("pair loop vu", lambda: _pair_product(sig, v.terms, u.terms)),
        ("commutator", lambda: u.commutator(v).terms),
        ("anticommutator", lambda: u.anticommutator(v).terms),
    ):
        t0 = time.perf_counter()
        results[name] = run()
        print(f"{name}: {time.perf_counter() - t0:.3f} s")
    uv, vu = (Multivector._raw(sig, Field.COMPLEX, results.pop(name))
              for name in ("pair loop", "pair loop vu"))
    wants = {"matrix path": uv, "product": uv,
             "commutator": uv - vu, "anticommutator": uv + vu}
    differ = [name for name, want in wants.items()
              if _bits(results[name]) != _bits(want.terms)]
    if differ:
        print(f"differ from the pair loop: {', '.join(differ)}")
        return 1
    print(f"{len(uv.terms)} terms in uv, {len(wants['commutator'].terms)} in [u, v] "
          f"and {len(wants['anticommutator'].terms)} in {{u, v}}, every float.hex equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
