"""Text and JSON input/output for multivectors.

Expression grammar (whitespace allowed around '+'/'-', not inside a term):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := coef blade | coef | blade
    coef    := decimal ['i'] | '(' decimal ('+'|'-') decimal 'i' ')'
    decimal := digits ['.' digits]
    blade   := 'e' digit+ | 'e{' index (',' index)* '}'

Exponent notation is excluded on purpose: '2e2' must parse as the blade e2
scaled by 2, not as 200.  Blade indices are 1-based and strictly increasing;
the compact form takes one digit per index, the braced form any index up to
the generator count.  Formatting is the inverse: parse(format(u)) == u.
"""

from __future__ import annotations

import cmath
import math

from .blades import Signature, blade_indices, grade, mask_from_indices
from .multivector import Field, Multivector


class ExprSyntaxError(ValueError):
    """Expression rejected; ``position`` is the 0-based offending offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, sig: Signature) -> None:
        self.text = text
        self.sig = sig
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos if position is None else position)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> dict[int, complex]:
        terms: dict[int, complex] = {}
        self.skip_ws()
        if self.pos == len(self.text):
            raise self.error("empty expression")
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
            self.skip_ws()
        while True:
            start = self.pos
            coeff, mask = self.term()
            total = terms.get(mask, 0j) + sign * coeff
            if not cmath.isfinite(total):  # each term is finite, their sum may not be
                raise self.error("coefficient sum too large for a double", start)
            terms[mask] = total
            self.skip_ws()
            if self.pos == len(self.text):
                return terms
            ch = self.peek()
            if ch not in "+-":
                raise self.error(f"expected '+' or '-', found {ch!r}")
            sign = -1 if ch == "-" else 1
            self.pos += 1
            self.skip_ws()

    def term(self) -> tuple[complex, int]:
        ch = self.peek()
        coeff = None
        if ch == "(" or ch.isdigit():
            coeff = self.coef()
        if self.peek() == "e":
            mask = self.blade()
        elif coeff is None:
            raise self.error(
                f"expected a coefficient or blade, found {ch!r}" if ch
                else "expected a coefficient or blade, found end of input"
            )
        else:
            mask = 0
        return (coeff if coeff is not None else (1 + 0j), mask)

    def coef(self) -> complex:
        if self.peek() == "(":
            self.pos += 1
            re = self.decimal()
            ch = self.peek()
            if ch not in "+-":
                raise self.error(f"expected '+' or '-' inside coefficient, found {ch!r}")
            self.pos += 1
            im = self.decimal()
            if self.peek() != "i":
                raise self.error(f"expected 'i' inside coefficient, found {self.peek()!r}")
            self.pos += 1
            if self.peek() != ")":
                raise self.error(f"expected ')', found {self.peek()!r}")
            self.pos += 1
            return complex(re, im if ch == "+" else -im)
        value = self.decimal()
        if self.peek() == "i":
            self.pos += 1
            return complex(0.0, value)
        return complex(value, 0.0)

    def decimal(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected a number, found {self.peek()!r}", start)
        if self.peek() == ".":
            self.pos += 1
            frac = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == frac:
                raise self.error("expected digits after decimal point")
        value = float(self.text[start:self.pos])
        if value == math.inf:  # float() gives inf for a decimal past DBL_MAX
            raise self.error("number too large for a double", start)
        return value

    def blade(self) -> int:
        self.pos += 1  # past 'e'
        indices: list[int] = []
        if self.peek() == "{":
            self.pos += 1
            while True:
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                if self.pos == start:
                    raise self.error(f"expected a blade index, found {self.peek()!r}")
                self._push_index(indices, int(self.text[start:self.pos]), start)
                if self.peek() == ",":
                    self.pos += 1
                    continue
                if self.peek() == "}":
                    self.pos += 1
                    break
                raise self.error(f"expected ',' or '}}', found {self.peek()!r}")
        else:
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self._push_index(indices, int(self.text[self.pos]), self.pos)
                self.pos += 1
            if self.pos == start:
                raise self.error(f"expected blade indices, found {self.peek()!r}")
        mask = 0
        for idx in indices:
            mask |= 1 << (idx - 1)
        return mask

    def _push_index(self, indices: list[int], idx: int, position: int) -> None:
        if idx < 1 or idx > self.sig.n:
            raise self.error(
                f"blade index {idx} outside 1..{self.sig.n} for {self.sig}", position
            )
        if indices and idx <= indices[-1]:
            raise self.error(
                f"blade index {idx} not strictly increasing", position
            )
        indices.append(idx)


def parse_expression(text: str, sig: Signature,
                     field: Field | None = None) -> Multivector:
    """Parse ``text`` into a multivector over ``sig``.

    With ``field=None`` the field is inferred: real when every coefficient,
    summed per blade, is real, complex otherwise."""
    terms = _Parser(text, sig).parse()
    if field is None:
        field = (Field.REAL
                 if all(c.imag == 0.0 for c in terms.values()) else Field.COMPLEX)
    return Multivector(sig, field, terms)


def format_float(x: float) -> str:
    """Positional decimal text for a finite float, integers bare."""
    if x == int(x) and abs(x) < 2 ** 53:
        return str(int(x))
    s = repr(x)
    if "e" not in s:
        return s
    # shift the point of repr's shortest digits by the exponent
    sign = "-" if x < 0 else ""
    mantissa, exponent = s.lstrip("-").split("e")
    head, _, tail = mantissa.partition(".")
    digits, point = head + tail, len(head) + int(exponent)
    # repr uses an exponent only below 1e-4 (point <= -4) or from 1e16 (point >= 17)
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return sign + digits + "0" * (point - len(digits))


def format_blade(mask: int) -> str:
    if mask == 0:
        return ""
    indices = blade_indices(mask)
    if indices[-1] <= 9:
        return "e" + "".join(str(i) for i in indices)
    return "e{" + ",".join(str(i) for i in indices) + "}"


def _term_text(coeff: complex, blade: str) -> tuple[int, str]:
    """(sign, body) with sign pulled out for '+'/'-' joining."""
    re, im = coeff.real, coeff.imag
    if im == 0.0:
        sign = 1 if re > 0 else -1
        mag = abs(re)
        if blade and mag == 1.0:
            return sign, blade
        return sign, format_float(mag) + blade
    if re == 0.0:
        s = "+" if im > 0 else "-"
        return 1, f"(0{s}{format_float(abs(im))}i){blade}"
    sign = 1
    if re < 0.0:
        sign = -1
        re, im = -re, -im
    s = "+" if im >= 0 else "-"
    return sign, f"({format_float(re)}{s}{format_float(abs(im))}i){blade}"


def format_expression(u: Multivector) -> str:
    """Render ``u`` in the expression grammar; zero renders as '0'.

    Terms are sorted by (grade, blade mask).  Unit real coefficients drop to
    a bare blade; pure imaginary ones keep the parenthesized form."""
    if not u.terms:
        return "0"
    parts: list[str] = []
    for mask in sorted(u.terms, key=lambda m: (grade(m), m)):
        sign, body = _term_text(u.terms[mask], format_blade(mask))
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return "".join(parts)


def mv_to_document(u: Multivector) -> dict:
    """JSON-ready dict: signature, field tag, and one entry per blade with
    1-based index list and both coefficient parts, in ascending mask order."""
    return {
        "p": u.sig.p,
        "q": u.sig.q,
        "field": u.field.value,
        "terms": [
            {
                "blade": list(blade_indices(mask)),
                "re": u.terms[mask].real,
                "im": u.terms[mask].imag,
            }
            for mask in sorted(u.terms)
        ],
    }


def mv_from_document(doc: dict, sig: Signature | None = None) -> Multivector:
    """Inverse of :func:`mv_to_document`, validating as it goes.

    ``sig`` asserts an expected signature; a mismatching document raises
    ValueError (as does any malformed field)."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for key in ("p", "q", "field", "terms"):
        if key not in doc:
            raise ValueError(f"document missing key {key!r}")
    p, q = doc["p"], doc["q"]
    if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool) or isinstance(q, bool):
        raise ValueError("document p and q must be integers")
    doc_sig = Signature(p, q)
    if sig is not None and sig != doc_sig:
        raise ValueError(f"document signature {doc_sig} does not match expected {sig}")
    try:
        field = Field(doc["field"])
    except ValueError:
        raise ValueError(f"document field must be 'R' or 'C', got {doc['field']!r}") from None
    if not isinstance(doc["terms"], list):
        raise ValueError("document terms must be a list")
    terms: dict[int, complex] = {}
    for i, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict):
            raise ValueError("each term must be a JSON object")
        for key in ("blade", "re", "im"):
            if key not in entry:
                raise ValueError(f"term missing key {key!r}")
        blade = entry["blade"]
        if not isinstance(blade, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in blade
        ):
            raise ValueError("term blade must be a list of integers")
        mask = mask_from_indices(blade, doc_sig.n)
        re, im = entry["re"], entry["im"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise ValueError("term coefficients must be numbers")
        try:
            coeff = complex(re, im)
        except OverflowError:
            raise ValueError("term coefficient too large for a double") from None
        total = terms.get(mask, 0j) + coeff
        if not cmath.isfinite(total):
            raise ValueError(
                f"term {i} on blade {blade}: coefficient sum {total!r} is not finite")
        terms[mask] = total
    return Multivector(doc_sig, field, terms)
