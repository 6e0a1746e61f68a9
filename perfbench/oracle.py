"""Reference Clifford arithmetic and output checks, independent of quatype.

Nothing here imports quatype.  Multivectors are plain ``{mask: complex}``
dicts over a signature given as ``(p, q)``; bit ``i-1`` of a mask is
generator e_i, the first ``p`` generators square to +1 and the rest to -1.
The blade sign follows the definition: concatenate the two generator lists,
count the inversions needed to sort them, and multiply by the square of
every generator the two blades share.
"""

from __future__ import annotations

import functools
import json
import math
import re

# The 60 report names of `quatype verify --suite all`, written out by hand so
# that a changed or missing check shows as a mismatch.
SUITE_ALL_NAMES = (
    "axioms:anticomm", "axioms:comm", "grades",
    "tables:product", "tables:comm", "tables:anticomm",
    "closure:product:R:02",
    "closure:product:C:02", "closure:product:C:02+i02",
    "closure:product:C:02+i13", "closure:product:C:0123",
    "closure:comm:R:2", "closure:comm:R:02", "closure:comm:R:12",
    "closure:comm:R:23",
    "closure:comm:C:2", "closure:comm:C:02", "closure:comm:C:12",
    "closure:comm:C:23", "closure:comm:C:0123",
    "closure:comm:C:02+i02", "closure:comm:C:12+i12", "closure:comm:C:23+i23",
    "closure:comm:C:2+i0", "closure:comm:C:2+i1", "closure:comm:C:2+i2",
    "closure:comm:C:2+i3",
    "closure:comm:C:02+i13", "closure:comm:C:12+i03", "closure:comm:C:23+i01",
    "closure:anticomm:R:0", "closure:anticomm:R:01", "closure:anticomm:R:02",
    "closure:anticomm:R:03",
    "closure:anticomm:C:0", "closure:anticomm:C:01", "closure:anticomm:C:02",
    "closure:anticomm:C:03", "closure:anticomm:C:0123",
    "closure:anticomm:C:01+i01", "closure:anticomm:C:02+i02",
    "closure:anticomm:C:03+i03",
    "closure:anticomm:C:0+i0", "closure:anticomm:C:0+i1",
    "closure:anticomm:C:0+i2", "closure:anticomm:C:0+i3",
    "closure:anticomm:C:01+i23", "closure:anticomm:C:02+i13",
    "closure:anticomm:C:03+i12",
    "theorem5",
    "theorem6:2", "theorem6:2+i0", "theorem6:2+i1", "theorem6:23",
    "theorem7:2->02", "theorem7:2+i0->02+i02", "theorem7:2+i1->02+i13",
    "theorem7:23->0123",
    "wc", "rank",
)


# ----------------------------------------------------------------------
# blades and products

@functools.lru_cache(maxsize=None)
def generators(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of a blade mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def grade(mask: int) -> int:
    return len(generators(mask))


@functools.lru_cache(maxsize=1 << 20)
def blade_sign(a: int, b: int, p: int) -> int:
    """Sign of e_A e_B = sign * e_(A xor B) in Cl(p, q)."""
    la, lb = generators(a), generators(b)
    inversions = sum(1 for x in la for y in lb if x > y)
    shared = set(la).intersection(lb)
    negative_squares = sum(1 for g in shared if g > p)
    return -1 if (inversions + negative_squares) % 2 else 1


def product(u: dict, v: dict, p: int) -> dict:
    out: dict[int, complex] = {}
    for a, ca in u.items():
        for b, cb in v.items():
            m = a ^ b
            out[m] = out.get(m, 0j) + blade_sign(a, b, p) * ca * cb
    return {m: c for m, c in out.items() if c != 0}


def combine(u: dict, v: dict, sign: int) -> dict:
    out = dict(u)
    for m, c in v.items():
        out[m] = out.get(m, 0j) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def commutator(u: dict, v: dict, p: int) -> dict:
    return combine(product(u, v, p), product(v, u, p), -1)


def anticommutator(u: dict, v: dict, p: int) -> dict:
    return combine(product(u, v, p), product(v, u, p), +1)


def conjugate(u: dict) -> dict:
    """Reversion times complex conjugation: reversing g generators takes
    g(g-1)/2 transpositions."""
    return {m: (-1) ** (grade(m) * (grade(m) - 1) // 2) * c.conjugate()
            for m, c in u.items()}


def type_of(mask: int) -> int:
    return grade(mask) % 4


def grade_part(u: dict, k: int) -> dict:
    return {m: c for m, c in u.items() if grade(m) == k}


def type_part(u: dict, k: int) -> dict:
    return {m: c for m, c in u.items() if type_of(m) == k}


def type_mask(u: dict) -> int:
    """Bit k set when some coefficient of grade = k mod 4 is nonzero."""
    out = 0
    for m in u:
        out |= 1 << type_of(m)
    return out


def pattern_classes(u: dict) -> tuple[int, int, int, int]:
    """Per main type: bit 0 when a real part occurs, bit 1 for an imaginary part."""
    classes = [0, 0, 0, 0]
    for m, c in u.items():
        classes[type_of(m)] |= (c.real != 0) | (c.imag != 0) << 1
    return tuple(classes)


def inf_norm_diff(u: dict, v: dict) -> float:
    keys = set(u) | set(v)
    return max((abs(u.get(m, 0j) - v.get(m, 0j)) for m in keys), default=0.0)


def exp_single_blade(mask: int, coeff: complex, p: int) -> dict:
    """exp(c e_B) in closed form.  (c e_B)^2 = c^2 s with s = e_B^2 = +-1,
    so with x^2 = c^2 s real: cosh/sinh when positive, cos/sin when negative."""
    s = blade_sign(mask, mask, p)
    sq = coeff * coeff * s
    if abs(sq.imag) > 1e-12 * max(1.0, abs(sq)):
        raise ValueError("closed form needs (c e_B)^2 real")
    x2 = sq.real
    if x2 == 0:
        return {0: 1 + 0j, mask: coeff}
    theta = math.sqrt(abs(x2))
    if x2 > 0:
        even, odd = math.cosh(theta), math.sinh(theta) / theta
    else:
        even, odd = math.cos(theta), math.sin(theta) / theta
    return {0: complex(even), mask: coeff * odd}


def pseudo_unitary_defect(big_u: dict, p: int) -> float:
    """inf-norm of conj(U) U - 1 through the reference product."""
    return inf_norm_diff(product(conjugate(big_u), big_u, p), {0: 1 + 0j})


def leakage(u: dict, real_types: str, imag_types: str) -> float:
    """Largest coefficient part outside the pattern granting real parts on
    ``real_types`` and imaginary parts on ``imag_types`` (digit strings)."""
    worst = 0.0
    for m, c in u.items():
        t = str(type_of(m))
        if t not in real_types:
            worst = max(worst, abs(c.real))
        if t not in imag_types:
            worst = max(worst, abs(c.imag))
    return worst


# ----------------------------------------------------------------------
# expression text

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:\((?P<re>\d+(?:\.\d+)?)(?P<isign>[+-])(?P<im>\d+(?:\.\d+)?)i\)"
    r"|(?P<num>\d+(?:\.\d+)?)(?P<imag>i)?)?"
    r"(?:e(?:\{(?P<braced>\d+(?:,\d+)*)\}|(?P<compact>\d+)))?"
)


def parse(text: str, n: int) -> dict:
    """Parse the expression grammar of the project README."""
    out: dict[int, complex] = {}
    pos = 0
    first = True
    while True:
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        if pos == len(text):
            break
        m = _TERM.match(text, pos)
        has_coef = m.group("re") is not None or m.group("num") is not None
        has_blade = m.group("braced") is not None or m.group("compact") is not None
        if not (has_coef or has_blade) or (m.group("sign") is None and not first):
            raise ValueError(f"bad term at {pos} in {text!r}")
        if m.group("re") is not None:
            im = float(m.group("im")) * (1 if m.group("isign") == "+" else -1)
            coeff = complex(float(m.group("re")), im)
        elif m.group("num") is not None:
            x = float(m.group("num"))
            coeff = complex(0.0, x) if m.group("imag") else complex(x, 0.0)
        else:
            coeff = 1 + 0j
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("braced") is not None:
            indices = [int(i) for i in m.group("braced").split(",")]
        elif m.group("compact") is not None:
            indices = [int(ch) for ch in m.group("compact")]
        else:
            indices = []
        if any(i < 1 or i > n for i in indices) or indices != sorted(set(indices)):
            raise ValueError(f"bad blade indices {indices} in {text!r}")
        mask = sum(1 << (i - 1) for i in indices)
        out[mask] = out.get(mask, 0j) + coeff
        pos = m.end()
        first = False
    return {m: c for m, c in out.items() if c != 0}


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def format_text(u: dict) -> str:
    """Expression text for ``u`` (finite coefficients without exponents),
    every blade in braced form and every coefficient written out."""
    if not u:
        return "0"
    parts = []
    for mask in sorted(u):
        c = u[mask]
        sign = "+"
        if c.real < 0 or (c.real == 0 and c.imag < 0):
            sign, c = "-", -c
        if c.imag == 0:
            coef = _num(c.real)
        elif c.real == 0:
            coef = _num(c.imag) + "i"
        else:
            op = "+" if c.imag > 0 else "-"
            coef = f"({_num(c.real)}{op}{_num(abs(c.imag))}i)"
        blade = "e{" + ",".join(map(str, generators(mask))) + "}" if mask else ""
        parts.append(f"{sign} {coef}{blade}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


# ----------------------------------------------------------------------
# verify reports

def check_verify_output(stdout: str, returncode: int, p: int, q: int) -> list[str]:
    """Problems with one `quatype verify --suite all --format json` run.

    Pins the exit code, the signature, the check names and every verdict;
    leaves notes, case counts and the bytes of the JSON free."""
    if returncode != 0:
        return [f"exit code {returncode}, want 0"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    if (doc.get("p"), doc.get("q")) != (p, q):
        problems.append(f"report is for Cl({doc.get('p')},{doc.get('q')}), want Cl({p},{q})")
    reports = doc.get("reports", [])
    names = tuple(r.get("name") for r in reports)
    if names != SUITE_ALL_NAMES:
        problems.append(f"check names differ: got {len(names)} names")
    for r in reports:
        want = "skipped" if r.get("name") == "rank" and p + q >= 4 else "pass"
        if r.get("status") != want:
            problems.append(f"{r.get('name')}: status {r.get('status')}, want {want}")
        if r.get("counterexample") is not None:
            problems.append(f"{r.get('name')}: unexpected counterexample")
    want_summary = {"pass": 59, "fail": 0, "skipped": 1} if p + q >= 4 else \
        {"pass": 60, "fail": 0, "skipped": 0}
    if doc.get("summary") != want_summary:
        problems.append(f"summary {doc.get('summary')}, want {want_summary}")
    return problems
