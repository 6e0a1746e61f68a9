"""What `import quatype` loads, checked in a fresh interpreter.

The verifier loads on first use of one of its names, so a process that only
does arithmetic never compiles `verify.py`; `exprio` loads on first use of
one of its five names, or in the CLI commands that read or write
expressions, so a passing verdict never compiles it.  The product's matrix
path (`_matrix`) loads on the first product that takes it.  No import of the
package, the CLI included, loads `dataclasses` (which brings `inspect`,
`ast`, `dis` and `tokenize`), `decimal` or `csv`.  The probes run in
subprocesses because the test process has long since imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json
import sys

import quatype

facts = {"verify_loaded_by_import": "quatype.verify" in sys.modules,
         "exprio_loaded_by_import": "quatype.exprio" in sys.modules}
facts["unresolved"] = [n for n in quatype.__all__ if not hasattr(quatype, n)]
import quatype.exprio as exprio
import quatype.verify as verify

# the five names exprio defines: each one object through the package
facts["exprio_names"] = sorted(n for n in quatype.__all__ if n in vars(exprio)
                               and vars(exprio)[n].__module__ == exprio.__name__)
facts["not_exprio_object"] = [n for n in facts["exprio_names"]
                              if getattr(quatype, n) is not vars(exprio)[n]]

shared = [n for n in quatype.__all__ if n in vars(verify)]
facts["shared"] = shared
facts["not_verify_object"] = [n for n in shared
                              if getattr(quatype, n) is not vars(verify)[n]]
# a name read through the package is not cached there: a later
# replacement in quatype.verify shows through it
original, verify.run_suite = verify.run_suite, object()
facts["sees_replacement"] = quatype.run_suite is verify.run_suite
verify.run_suite = original
star = {}
exec("from quatype import *", star)
facts["unbound_by_star"] = [n for n in quatype.__all__ if n not in star]
facts["missing_from_dir"] = sorted(set(quatype.__all__) - set(dir(quatype)))
try:
    quatype.no_such_name
    facts["no_such_name"] = "resolved"
except AttributeError as exc:
    facts["no_such_name"] = str(exc)
print(json.dumps(facts))
"""


def test_import_defers_the_verifier_until_a_name_is_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-W", "error", "-c", PROBE], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    facts = json.loads(r.stdout)
    assert facts["verify_loaded_by_import"] is False
    assert facts["exprio_loaded_by_import"] is False
    assert facts["unresolved"] == []
    assert facts["exprio_names"] == ["ExprSyntaxError", "format_expression",
                                     "mv_from_document", "mv_to_document",
                                     "parse_expression"]
    assert facts["not_exprio_object"] == []
    # every name verify defines or imports is one object through the package
    assert {"run_suite", "CheckConfig", "WC_PATTERN"} <= set(facts["shared"])
    assert facts["not_verify_object"] == []
    assert facts["sees_replacement"] is True
    assert facts["unbound_by_star"] == []
    assert facts["missing_from_dir"] == []
    assert facts["no_such_name"] == "module 'quatype' has no attribute 'no_such_name'"
    # the same refusal and listing in this process, where every module of
    # the package has long been loaded
    import quatype

    with pytest.raises(AttributeError, match=facts["no_such_name"]):
        quatype.no_such_name
    assert dir(quatype) == sorted(set(vars(quatype)) | set(quatype.__all__))


@pytest.mark.parametrize("module", ["quatype", "quatype.cli"])
def test_import_loads_no_dataclasses_or_decimal(module):
    # -S keeps site hooks from loading modules of their own, so only what
    # the import itself pulls in counts
    probe = (f"import {module}, sys; "
             "sys.exit(sorted({'dataclasses', 'decimal'} & set(sys.modules)) or None)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-S", "-W", "error", "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


_LAZY = ("quatype.exprio", "csv")


@pytest.mark.parametrize("module", ["quatype", "quatype.cli"])
def test_import_loads_no_exprio_or_csv(module):
    probe = (f"import {module}, sys; "
             f"sys.exit(sorted(set({_LAZY!r}) & set(sys.modules)) or None)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-S", "-W", "error", "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_passing_verdict_loads_no_exprio_or_csv():
    probe = (
        "import contextlib, io, sys\n"
        "from quatype import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['verify', '--p', '2', '--q', '2', '--suite', 'all'])\n"
        f"print(code, sorted(set({_LAZY!r}) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-S", "-W", "error", "-c", probe], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 []\n"


def test_matrix_path_loads_on_its_first_product():
    # a product on the pair loop leaves the matrix path's module unloaded;
    # the first dense integer product at n = 6 loads it
    probe = (
        "import sys\n"
        "from quatype import Field, Multivector, Signature\n"
        "sig = Signature(3, 3)\n"
        "e = Multivector.basis_blade(sig, 1)\n"
        "u = Multivector(sig, Field.REAL, {m: 1 for m in sig.blades()})\n"
        "loaded = ['quatype._matrix' in sys.modules]\n"
        "for a in (e, u):\n"
        "    a.geometric_product(a)\n"
        "    loaded.append('quatype._matrix' in sys.modules)\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-S", "-W", "error", "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[False, False, True]\n"
