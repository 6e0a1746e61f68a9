"""CLI behavior: exit codes, output formats, determinism.

Everything but the closed-stdout tests runs in-process through main(argv), so
the exit-code contract (0 pass, 1 verification failure, 2 usage/parse,
3 non-convergence) is asserted on return values, not on a subprocess.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quatype import _matrix, verify
from quatype.blades import Signature
from quatype.cli import main
from quatype.exprio import format_expression, mv_to_document
from quatype.multivector import ConvergenceFailure, Field, Multivector
from quatype.verify import SUITE_NAMES
from test_multivector import signed_pair_sum
from test_verifier import _comm_11_off_by_one


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a real-field document with an imaginary part: FieldMismatch, exit 2
_FIELD_MISMATCH_DOC = json.dumps(
    {"p": 2, "q": 2, "field": "R",
     "terms": [{"blade": [1], "re": 1, "im": 2}]})


# ----------------------------------------------------------------------
# verify

def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--q", "2",
                           "--suite", "all", "--seed", "42",
                           "--samples", "20")
    assert code == 0
    assert "fail" in out.splitlines()[-1]
    assert " 0 fail" in out.splitlines()[-1]


def test_verify_rejects_empty_signature(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "0", "--q", "0")
    assert code == 2
    assert "error" in err


def test_verify_rank_small_signature(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "1", "--q", "0",
                           "--suite", "rank")
    assert code == 0
    assert "rank" in out
    assert "PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--q", "1",
                           "--suite", "axioms", "--format", "json",
                           "--samples", "10")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "p", "q", "suite", "seed", "samples",
                            "strategy", "reports", "summary"}
    assert payload["suite"] == "axioms"
    assert [r["name"] for r in payload["reports"]] == \
        ["axioms:anticomm", "axioms:comm"]
    assert all(r["status"] == "pass" for r in payload["reports"])
    assert payload["summary"]["pass"] == 2


def test_verify_json_byte_identical_across_runs(capsys):
    args = ("verify", "--p", "2", "--q", "2", "--suite", "theorems",
            "--seed", "42", "--samples", "15", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of `verify --suite all --format json --seed 42` stdout at each n = 4
# signature, the benchmark's verify-small inputs.  A change that alters a
# report on purpose updates these pins and says so in CHANGES.md.
_VERIFY_N4_SHA256 = {
    (4, 0): "7852a087ddd209434a982785efcec0d49f2c119939d917087456218fe58a8df2",
    (3, 1): "4e96c86dc09a56367f02fb5dcd84c53797d0921543ab59ebd6e16eba7d85ed5e",
    (2, 2): "9b645fecf14655d23d2e2a24edbe6bbc103e38ce3a1b6f9b4c1b48e43c386f42",
    (1, 3): "69ed518e10b9942f97bbfeaa2e2a8d28fdea1061d4e99cc4d91e307cc16f1f0c",
    (0, 4): "5795500e1a9e2d30be11536c96c39d8d4176faa54cfed8d39d4d54e9caaa2eb0",
}


@pytest.mark.parametrize("p, q", list(_VERIFY_N4_SHA256))
def test_verify_json_pinned_at_n4(capsys, p, q):
    code, out, err = run_cli(capsys, "verify", "--p", str(p), "--q", str(q),
                             "--suite", "all", "--format", "json", "--seed", "42")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_N4_SHA256[p, q]


# The same at n = 5 and n = 8, with `--samples 20` to keep the witness short.
# From n = 5 on the census reaches all 32 (k, l, g, s) residue cells, so these
# pins cover every cell a report can depend on.
_VERIFY_ABOVE_N4_SHA256 = {
    (3, 2): "74785c4450f0d0d0a8f6c28340bdf0f80d0b02478265563d09586b6822fb29bc",
    (4, 4): "af42971d2ac80138a49d10c356f1372735388001c817988b90808de4d5e60384",
}


@pytest.mark.parametrize("p, q", list(_VERIFY_ABOVE_N4_SHA256))
def test_verify_json_pinned_above_n4(capsys, p, q):
    code, out, err = run_cli(capsys, "verify", "--p", str(p), "--q", str(q),
                             "--suite", "all", "--format", "json", "--seed", "42",
                             "--samples", "20")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_ABOVE_N4_SHA256[p, q]


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2
    assert run_cli(capsys, "verify", "--samples", "0")[0] == 2
    assert run_cli(capsys, "verify", "--p", "9", "--q", "9")[0] == 2


def test_verify_has_no_tol_option(capsys):
    # no tol below 1 changed a verdict, and from 1 on wc failed a correct kernel
    for tol in ("1e-12", "0", "0.5", "1", "nan"):
        code, out, err = run_cli(capsys, "verify", "--suite", "wc", "--tol", tol)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: --tol {tol}" in err


def test_verify_single_leaf_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--q", "1",
                           "--suite", "closures", "--samples", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "closures"
    names = [r["name"] for r in payload["reports"]]
    assert len(names) == 43
    assert all(name.startswith("closure:") for name in names)


def test_verify_text_binary_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_grade_residue",
                        _comm_11_off_by_one(verify._grade_residue))
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "1",
                             "--suite", "grades")
    assert (code, err) == (1, "")
    assert out == (
        "grades  FAIL     cases=11\n"
        "        counterexample: comm(e1, e2) leaks 2 in grade 2 (want residue 3)\n"
        "1 checks: 0 pass, 1 fail, 0 skipped\n")


def test_verify_text_unary_counterexample(capsys, monkeypatch):
    # exp(u) e1 is still pseudo-unitary but odd, so it leaves 02
    original = Multivector.exp
    monkeypatch.setattr(Multivector, "exp", lambda self, *args: original(
        self, *args).geometric_product(Multivector.basis_blade(self.sig, 0b1)))
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "1",
                             "--suite", "theorem7", "--samples", "5")
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == [
        "theorem7:2->02         FAIL     cases=38",
        "                       counterexample: exp(0.3333333333333333e12"
        " + 0.3333333333333333e13 + 0.3333333333333333e23)"
        " leaks 1.05607 in outside pattern 02",
    ]
    assert out.splitlines()[-1] == "4 checks: 1 pass, 3 fail, 0 skipped"


# ----------------------------------------------------------------------
# table

def table_json(capsys, op):
    code, out, _ = run_cli(capsys, "table", "--op", op, "--format", "json")
    assert code == 0
    return json.loads(out)


def test_table_frozen_cells(capsys):
    anticomm = table_json(capsys, "anticomm")
    assert anticomm["order"][0] == "0"
    assert anticomm["cells"][0][0] == "0"
    comm = table_json(capsys, "comm")
    assert comm["cells"][0][0] == "2"
    product = table_json(capsys, "product")
    assert product["cells"][0][0] == "02"
    assert product["cells"][0][1] == "13"
    assert product["order"][-1] == "0123"
    assert len(product["cells"]) == 15
    assert all(len(row) == 15 for row in product["cells"])


def test_table_markdown_and_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--op", "comm")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| comm | 0 | 1 | 2 | 3 | 01 |")
    assert len(lines) == 17  # header, rule, 15 rows

    code, out, _ = run_cli(capsys, "table", "--op", "anticomm",
                           "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "anticomm,0,1,2,3,01,02,03,12,13,23,012,013,023,123,0123"
    assert rows[1].startswith("0,0,")


def test_table_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--op", "product")
    _, second, _ = run_cli(capsys, "table", "--op", "product")
    assert first == second


def test_table_usage_error(capsys):
    assert run_cli(capsys, "table", "--op", "bogus")[0] == 2
    assert run_cli(capsys, "table")[0] == 2


# ----------------------------------------------------------------------
# type

def test_type_scalar_plus_top_blade(capsys):
    code, out, _ = run_cli(capsys, "type", "--p", "4", "--q", "0",
                           "--expr", "1 + e1234")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["type"] == "0"
    assert lines["signature"] == "Cl(4,0)"
    assert lines["field"] == "R"
    assert lines["grade 0"] == "1"
    assert lines["grade 4"] == "e1234"
    assert lines["even"] == "1 + e1234"
    assert lines["odd"] == "0"


def test_type_mixed_grades(capsys):
    code, out, _ = run_cli(capsys, "type", "--p", "2", "--q", "0",
                           "--expr", "e1 + 2e12")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["type"] == "12"
    assert lines["odd"] == "e1"


def test_type_rejects_non_finite_tol(capsys):
    # the library refuses the tolerance; the CLI reports its ValueError
    for tol in ("nan", "inf", "-1"):
        code, out, err = run_cli(capsys, "type", "--expr", "1 + 2e12", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be finite and nonnegative\n"


def test_type_rejects_tol_of_one_or_more(capsys):
    # --tol 1 used to print "type: (empty)" and exit 0 for a nonzero element
    for tol in ("1", "1.5", "2", "5"):
        code, out, err = run_cli(capsys, "type", "--expr", "1 + 2e12", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be below 1: every type would drop out\n"
    # at 0.5 the threshold is 1.5: the grade-2 part (2) stays, the scalar drops
    code, out, _ = run_cli(capsys, "type", "--expr", "1 + 2e12", "--tol", "0.5")
    assert code == 0
    assert dict(line.split(": ", 1) for line in out.splitlines())["type"] == "2"


def test_type_rejects_decreasing_indices(capsys):
    code, _, err = run_cli(capsys, "type", "--p", "2", "--q", "0",
                           "--expr", "e21")
    assert code == 2
    assert "position" in err


def test_type_reports_end_of_input_within_the_text(capsys):
    code, out, err = run_cli(capsys, "type", "--p", "2", "--q", "2",
                             "--expr", "(1")
    assert (code, out) == (2, "")
    assert "(at position 2)" in err


def test_type_from_document(capsys, tmp_path):
    doc = {"p": 2, "q": 2, "field": "C", "terms": [
        {"blade": [1, 2], "re": 0.0, "im": 1.0},
    ]}
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "type", "--p", "2", "--q", "2",
                           "--input", str(path))
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["type"] == "2"
    assert lines["pattern"] == "i2"


def test_type_of_document_whose_inf_norm_overflows(capsys, tmp_path):
    # each part is a finite double, |re| + |im| = 2e308 is not
    doc = {"p": 2, "q": 2, "field": "C", "terms": [
        {"blade": [1], "re": 1e308, "im": 1e308},
    ]}
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(doc))
    for tol in ("0", "1e-12"):
        code, out, _ = run_cli(capsys, "type", "--p", "2", "--q", "2",
                               "--tol", tol, "--input", str(path))
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert (lines["type"], lines["pattern"]) == ("1", "1+i1"), tol
        assert lines["grade 1"] != "0"


def test_type_input_errors(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(capsys, "type", "--input", str(missing))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "type", "--input", str(bad))[0] == 2
    wrong_sig = tmp_path / "sig.json"
    wrong_sig.write_text(json.dumps(
        {"p": 1, "q": 0, "field": "R",
         "terms": [{"blade": [1], "re": 1.0, "im": 0.0}]}))
    assert run_cli(capsys, "type", "--p", "2", "--q", "2",
                   "--input", str(wrong_sig))[0] == 2
    wrong_field = tmp_path / "field.json"
    wrong_field.write_text(_FIELD_MISMATCH_DOC)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path, message in ((wrong_field, "real multivector"), (deep, "too deeply")):
        code, out, err = run_cli(capsys, "type", "--input", str(path))
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err
    code, out, err = run_cli(capsys, "type", "--expr", "9" * 400)
    assert (code, out) == (2, "")
    assert err == "error: number too large for a double (at position 0)\n"
    nines = "9" * 308  # each term a finite double, their sum not
    code, out, err = run_cli(capsys, "type", "--p", "2", "--q", "0",
                             "--expr", f"{nines} + {nines}")
    assert (code, out) == (2, "")
    assert err == "error: coefficient sum too large for a double (at position 311)\n"
    # --expr and --input are mutually exclusive
    assert run_cli(capsys, "type", "--expr", "1",
                   "--input", str(missing))[0] == 2


def test_type_rejects_oversized_document_coefficient(capsys, tmp_path):
    # 10**400 parses as a JSON integer but fits no double: usage error, exit 2
    huge = tmp_path / "huge.json"
    huge.write_text('{"p": 2, "q": 2, "field": "R", "terms": '
                    '[{"blade": [], "re": 1' + "0" * 400 + ', "im": 0}]}')
    code, out, err = run_cli(capsys, "type", "--input", str(huge))
    assert code == 2
    assert out == ""
    assert "too large" in err


# ----------------------------------------------------------------------
# eval

def test_eval_commutator_example(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "3", "--q", "0",
                           "--op", "comm", "--lhs", "e12", "--rhs", "e1")
    assert code == 0
    text, doc_line = out.splitlines()
    assert text == "-2e2"
    doc = json.loads(doc_line)
    assert doc["terms"] == [{"blade": [2], "re": -2.0, "im": 0.0}]


def test_eval_conjugate_example(capsys):
    code, out, _ = run_cli(capsys, "eval", "--op", "conj",
                           "--lhs", "(0+1i)e1", "--p", "1", "--q", "0")
    assert code == 0
    assert out.splitlines()[0] == "(0-1i)e1"


def test_eval_exp_of_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "--op", "exp",
                           "--lhs", "0e1", "--p", "1", "--q", "0")
    assert code == 0
    text, doc_line = out.splitlines()
    assert text == "1"
    assert json.loads(doc_line)["terms"] == \
        [{"blade": [], "re": 1.0, "im": 0.0}]


def test_eval_field_promotion(capsys):
    code, out, _ = run_cli(capsys, "eval", "--op", "gp",
                           "--lhs", "2e1", "--rhs", "1i")
    assert code == 0
    assert json.loads(out.splitlines()[1])["field"] == "C"


def test_eval_dense_mixed_field_bracket_takes_one_matrix_pass(capsys, monkeypatch):
    # A dense integer REAL lhs and COMPLEX rhs at Cl(3,3): eval promotes the
    # lhs, and each bracket is one pass of the matrix kernel, whose result
    # must print as the signed pair sums' uv - vu and uv + vu.
    sig = Signature(3, 3)
    rng = random.Random(6)
    lhs, rhs = (Multivector(sig, field, {
        m: complex(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3) * imag)
        for m in sig.blades()}) for field, imag in ((Field.REAL, 0), (Field.COMPLEX, 1)))
    promoted = Multivector(sig, Field.COMPLEX, dict(lhs.terms))
    uv, vu = signed_pair_sum(promoted, rhs), signed_pair_sum(rhs, promoted)
    signs = []
    matrix_product = _matrix.matrix_product

    def counted(sig, ta, tb, sign=0):
        signs.append(sign)
        return matrix_product(sig, ta, tb, sign)

    monkeypatch.setattr(_matrix, "matrix_product", counted)
    for op, sign in (("comm", -1), ("anticomm", 1)):
        want = Multivector(sig, Field.COMPLEX, {
            m: uv.get(m, 0j) + sign * vu.get(m, 0j) for m in sorted(uv.keys() | vu.keys())})
        signs.clear()
        code, out, err = run_cli(capsys, "eval", "--p", "3", "--q", "3", "--op", op,
                                 "--lhs", format_expression(lhs),
                                 "--rhs", format_expression(rhs))
        assert (code, err, signs) == (0, "", [sign])
        text, doc_line = out.splitlines()
        assert text == format_expression(want)
        assert json.loads(doc_line) == mv_to_document(want)


def test_eval_arity_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "--op", "conj", "--lhs", "e1",
                           "--rhs", "e2")
    assert code == 2
    assert "unary" in err
    code, _, err = run_cli(capsys, "eval", "--op", "comm", "--lhs", "e1")
    assert code == 2
    assert "--rhs" in err


def test_eval_parse_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--op", "gp",
                           "--lhs", "e21", "--rhs", "1")
    assert code == 2
    assert "position" in err


def test_eval_exp_nonconvergence_exit_code(capsys, monkeypatch):
    def refuse(self, eps=1e-14, max_terms=200):
        raise ConvergenceFailure("series did not settle")

    monkeypatch.setattr(Multivector, "exp", refuse)
    code, _, err = run_cli(capsys, "eval", "--op", "exp", "--lhs", "e1",
                           "--p", "1", "--q", "0")
    assert code == 3
    assert "settle" in err


def test_verify_exp_nonconvergence_exit_code(capsys, monkeypatch):
    def refuse(self, eps=1e-14, max_terms=200):
        raise ConvergenceFailure("series did not settle")

    monkeypatch.setattr(Multivector, "exp", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem7",
                             "--p", "1", "--q", "1", "--samples", "1")
    assert (code, out) == (3, "")
    assert err == "error: series did not settle\n"


def test_eval_overflowing_product_exit_code(capsys):
    big = "1" + "0" * 190 + "e1"
    code, out, err = run_cli(capsys, "eval", "--p", "2", "--q", "0",
                             "--op", "gp", "--lhs", big, "--rhs", big)
    assert code == 2
    assert out == ""
    assert "overflows" in err
    assert "Traceback" not in err


def test_eval_overflowing_exp_exit_code(capsys):
    # exp(1e4) as floats: its squarings overflow
    code, out, err = run_cli(capsys, "eval", "--p", "1", "--q", "0",
                             "--op", "exp", "--lhs", "1000e1")
    assert (code, out) == (2, "")
    assert err == "error: arithmetic result overflows a double\n"


@pytest.mark.parametrize("op, lhs, rhs, note", [
    # the operands of test_integer_product_bound_is_tight, on either side of
    # 2^53 for the product and past 2^52 for a bracket
    ("gp", "94906265e1", "94906265e1", ""),
    ("gp", "94906267e1", "94906267e1", "9007199515875289 is at least 2^53"),
    ("gp", "134217729e1", "134217729e1", "18014398777917441 is at least 2^53"),
    ("anticomm", "94906265e1", "94906265e1", "9007199136250225 is at least 2^52"),
    # a bracket just below and exactly at 2^52
    ("comm", "67108863e1", "67108863e1", ""),
    ("comm", "67108864e1", "67108864e1", "4503599627370496 is at least 2^52"),
    ("gp", "94906267.5e1", "94906267e1", ""),  # not integer parts
])
def test_eval_notes_integer_products_past_exactness_bound(capsys, op, lhs, rhs, note):
    code, out, err = run_cli(capsys, "eval", "--p", "1", "--q", "0",
                             "--op", op, "--lhs", lhs, "--rhs", rhs)
    assert code == 0
    assert err == (f"note: l1(lhs)*l1(rhs) = {note}; the result may not be exact\n"
                   if note else "")
    if lhs == "134217729e1":  # README's example, one below the true square
        assert out.splitlines()[0] == "18014398777917440"


def test_eval_exp_refuses_lost_precision(capsys):
    code, out, err = run_cli(capsys, "eval", "--p", "2", "--q", "0",
                             "--op", "exp", "--lhs", "1" + "0" * 20 + "e12")
    assert code == 3
    assert out == ""
    assert "halvings" in err


_E308 = "1" + "0" * 308  # 1e308, which would take 1024 halvings


@pytest.mark.parametrize("lhs", [_E308, f"({_E308}+{_E308}i)"],
                         ids=["real", "complex"])
def test_eval_exp_refuses_huge_argument_without_a_traceback(capsys, lhs):
    # the refusal used to compute 2.0 ** 1024 and crash with OverflowError
    code, out, err = run_cli(capsys, "eval", "--p", "1", "--q", "0",
                             "--op", "exp", "--lhs", lhs)
    assert (code, out) == (3, "")
    assert err.startswith("error: exp argument needs 52 or more halvings")
    assert err.count("\n") == 1 and "Traceback" not in err


# ----------------------------------------------------------------------
# top-level usage

def test_no_command(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_command(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


_CHILD_ENV = dict(os.environ,
                  PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--q", "2", "--suite", "axioms"],
    ["table", "--op", "comm", "--format", "csv"],
])
def test_closed_stdout_keeps_exit_code(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout (or the flush at interpreter exit) meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "quatype", *argv],
                           stdout=write_end, stderr=subprocess.PIPE, text=True,
                           env=_CHILD_ENV, timeout=120)
    finally:
        os.close(write_end)
    assert r.returncode == 0, r.stderr
    for text in ("Broken pipe", "Exception ignored", "Traceback"):
        assert text not in r.stderr


def test_missing_stdout_is_not_an_error():
    # With file descriptor 1 closed at startup, sys.stdout is None.
    r = subprocess.run(["sh", "-c", 'exec "$0" -m quatype table --op comm >&-',
                        sys.executable], stderr=subprocess.PIPE, text=True,
                       env=_CHILD_ENV, timeout=120)
    assert (r.returncode, r.stderr) == (0, "")


# ----------------------------------------------------------------------
# exit-code contract over drawn argv and documents

_PQ = st.integers(-1, 4).map(str) | st.just("x")
_TOL = st.sampled_from(["0", "1e-12", "0.5", "-1", "nan", "inf", "abc"])
_EXPR = st.sampled_from([
    "0", "1", "e1", "1 + 2e12", "e1 + 2e12", "(0+1i)e1", "3e{1,3}",
    "0.5e12 - e1", "e21", "e5", "", "1" + "0" * 20 + "e12", _E308,
]) | st.text(alphabet="0123456789.+-ie{},() ", max_size=16)
_JUNK = st.sampled_from([None, True, "2", -1, 13, 10 ** 400, [], {}])


@st.composite
def _near(draw, valid):
    """A dict from ``valid`` with at most one key dropped or junked."""
    doc = draw(valid)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_JUNK)
    return doc


_TERM = _near(st.fixed_dictionaries({
    "blade": st.lists(st.integers(1, 4), max_size=2, unique=True).map(sorted),
    "re": st.integers(-3, 3) | st.floats(),
    "im": st.integers(-3, 3) | st.floats(),
}))
_DOC = _near(st.fixed_dictionaries({
    "p": st.just(2), "q": st.just(2), "field": st.sampled_from(["R", "C"]),
    "terms": st.lists(_TERM, max_size=3),
})).map(json.dumps) | st.sampled_from(["", "{", "[]", "null"])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _concat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_TABLE = _concat(st.just(["table"]),
                 _opt("--op", st.sampled_from(["product", "comm", "anticomm", "gp"])),
                 _opt("--format", st.sampled_from(["markdown", "csv", "json", "xml"])))
_TYPE = _concat(st.just(["type"]), _opt("--p", _PQ), _opt("--q", _PQ),
                _opt("--tol", _TOL), _EXPR.map(lambda e: ["--expr", e]))
_EVAL = _concat(st.just(["eval"]), _opt("--p", _PQ), _opt("--q", _PQ),
                st.sampled_from(["gp", "comm", "anticomm", "conj", "exp",
                                 "product"]).map(lambda op: ["--op", op]),
                _EXPR.map(lambda e: ["--lhs", e]), _opt("--rhs", _EXPR))
_VERIFY_FORMAT = _opt("--format", st.sampled_from(["text", "json"]))
# verify runs only at n <= 2 or as the rank suite, which skips at n >= 4
_VERIFY_SMALL = st.sampled_from(["00", "10", "01", "20", "11", "02"]).flatmap(
    lambda pq: _concat(
        st.just(["verify", "--p", pq[0], "--q", pq[1]]),
        _opt("--suite", st.sampled_from(SUITE_NAMES + ("bogus",))),
        st.sampled_from(["-1", "0", "1", "3"]).map(lambda n: ["--samples", n]),
        _opt("--seed", st.integers(-2, 2 ** 70).map(str)), _VERIFY_FORMAT))
_VERIFY_RANK = _concat(st.just(["verify", "--suite", "rank", "--samples", "2"]),
                       _opt("--p", _PQ | st.sampled_from(["9", "12"])),
                       _opt("--q", _PQ), _VERIFY_FORMAT)
_ARGV = st.one_of(
    st.tuples(_TABLE | _TYPE | _EVAL | _VERIFY_SMALL | _VERIFY_RANK, st.none()),
    st.tuples(_concat(st.just(["type"]), _opt("--tol", _TOL), st.just(["--input"])),
              _DOC),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=(["type", "--p", "2", "--q", "2", "--input"], _FIELD_MISMATCH_DOC))
@example(case=(["eval", "--p", "1", "--q", "0", "--op", "exp", "--lhs", _E308], None))
@given(case=_ARGV)
def test_cli_exit_code_contract(case, tmp_path):
    """Any argv, and any document behind --input, exits 0, 1, 2 or 3; an
    exception escaping main would be a traceback."""
    argv, document = case
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(document)
        argv = argv + [str(path)]
    assert main(argv) in (0, 1, 2, 3)
