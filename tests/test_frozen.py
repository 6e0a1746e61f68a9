"""The package's immutable value classes.

Signatures, types, patterns, verifier configs and reports are built on
`quatype._frozen.Frozen` instead of frozen dataclasses.  Each must keep what
the dataclass gave: field-wise equality and hash within its class, the
``Name(field=value, ...)`` repr, refusal to assign or delete, positional
match patterns, class-level defaults, and copy and pickle round-trips.
"""

import copy
import pickle

import pytest

from quatype import (
    CheckConfig,
    CheckReport,
    CheckStatus,
    Counterexample,
    QType,
    Signature,
    SubspacePattern,
)
from quatype.reference_tables import CellMismatch

CE = Counterexample("e1", None, "product", "e12", 0.5)

# (value, an equal value built another way, its repr or None)
VALUES = {
    "Signature": (Signature(2, 3), Signature(p=2, q=3), "Signature(p=2, q=3)"),
    "QType": (QType(5), QType.of(2, 0), "QType('02')"),
    "SubspacePattern": (SubspacePattern.from_parts("02", "2"),
                        SubspacePattern((1, 0, 3, 0)), None),
    "CheckConfig": (
        CheckConfig(Signature(2, 3), seed=-1),
        CheckConfig(sig=Signature(2, 3), seed=2 ** 64 - 1, samples=200),
        "CheckConfig(sig=Signature(p=2, q=3), seed=18446744073709551615, "
        "samples=200)",
    ),
    "Counterexample": (
        CE, Counterexample(lhs="e1", rhs=None, operation="product",
                           component="e12", magnitude=0.5),
        "Counterexample(lhs='e1', rhs=None, operation='product', "
        "component='e12', magnitude=0.5)",
    ),
    "CheckReport": (
        CheckReport("grades", CheckStatus.FAIL, 3, CE),
        CheckReport("grades", CheckStatus.FAIL, 3, counterexample=CE, notes=""),
        f"CheckReport(name='grades', status=<CheckStatus.FAIL: 'fail'>, "
        f"cases_run=3, counterexample={CE!r}, notes='')",
    ),
    "CellMismatch": (
        CellMismatch(QType(1), QType(2), QType(3), QType(4)),
        CellMismatch(row=QType(1), col=QType(2), printed=QType(3), derived=QType(4)),
        "CellMismatch(row=QType('0'), col=QType('1'), printed=QType('01'), "
        "derived=QType('2'))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class_behaves_as_a_frozen_dataclass(name):
    value, twin, text = VALUES[name]
    fields = type(value).__match_args__
    assert fields == tuple(type(value).__annotations__)
    assert value == twin and hash(value) == hash(twin)
    assert value != tuple(getattr(value, f) for f in fields)
    if text is not None:
        assert repr(value) == text
    for attr in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(value, attr, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[-1]}'"):
        delattr(value, fields[-1])
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value) and other == value
        assert hash(other) == hash(value)


def test_values_differ_by_any_field_and_by_class():
    assert Signature(2, 3) != Signature(3, 2)
    assert CheckConfig(Signature(2, 3)) != CheckConfig(Signature(2, 3), samples=1)
    assert QType(1) != SubspacePattern.from_parts("0")


def test_class_patterns_and_defaults():
    match Signature(2, 3):
        case Signature(p, q):
            assert (p, q) == (2, 3)
    assert (CheckConfig.seed, CheckConfig.samples) == (0, 200)
    assert (CheckReport.counterexample, CheckReport.notes) == (None, "")


def test_caches_keyed_on_values_hit_for_equal_values_built_apart():
    from quatype.blades import sign_table
    from quatype.verify import _real_basis

    assert sign_table(Signature(2, 2)) is sign_table(Signature(2, 2))
    assert (_real_basis(Signature(2, 2), SubspacePattern.from_parts("2"))
            is _real_basis(Signature(2, 2), SubspacePattern.from_parts("2")))


def test_unhashable_field_is_refused_only_when_hashed():
    # the hash is computed on first use, so building and comparing work
    report = CheckReport("grades", CheckStatus.PASS, 1, None, ["note"])
    assert report == CheckReport("grades", CheckStatus.PASS, 1, None, ["note"])
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
