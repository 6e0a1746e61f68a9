"""Cross-checks between the rule-generated tables and the hand-transcribed
printed ones.  The printed anticommutator and product tables are consistent
with the rules; the printed generic table is not, in four rows, and the
mismatch list below freezes exactly where."""

import pytest

from quatype.qtype import OpKind, emit_table
from quatype.reference_tables import (
    ANTICOMM_PRINTED,
    GENERIC_PRINTED,
    PRODUCT_PRINTED,
    TABLE_NAMES,
    cell_to_qtype,
    compare_table,
    discrepancy_report,
)


def test_table_names():
    assert set(TABLE_NAMES) == {"generic", "anticomm", "product"}
    with pytest.raises(ValueError, match="unknown table 'bogus'"):
        compare_table("bogus")


def test_transcriptions_have_full_shape():
    for table in (GENERIC_PRINTED, ANTICOMM_PRINTED, PRODUCT_PRINTED):
        assert len(table) == 15
        assert all(len(row) == 15 for row in table)


def test_cell_to_qtype_letters_and_digits():
    assert str(cell_to_qtype("E")) == "0"
    assert str(cell_to_qtype("IK")) == "13"
    assert str(cell_to_qtype("A")) == "0123"
    assert str(cell_to_qtype("02")) == "02"
    assert str(cell_to_qtype("0123")) == "0123"


def test_printed_anticommutator_table_is_rule_consistent():
    assert compare_table("anticomm") == []


def test_printed_product_table_is_rule_consistent():
    assert compare_table("product") == []


def test_printed_generic_table_mismatches_are_localized():
    mismatches = compare_table("generic")
    assert len(mismatches) == 20
    rows = {str(m.row) for m in mismatches}
    # letter rows EJ, EK, IJ, IK correspond to type rows 02, 03, 12, 13
    assert rows == {"02", "03", "12", "13"}
    by_row = {}
    for m in mismatches:
        by_row.setdefault(str(m.row), set()).add(str(m.col))
    assert by_row["02"] == {"1", "3", "01", "02", "13", "23"}
    assert by_row["03"] == {"1", "3", "01", "03", "12", "13"}
    assert by_row["12"] == {"1", "3", "01", "03", "12", "13"}
    assert by_row["13"] == {"1", "2"}


def test_mismatch_reports_both_values():
    mismatches = compare_table("generic")
    m = mismatches[0]
    assert m.printed != m.derived
    assert str(m.row) in str(m) and str(m.col) in str(m)


def test_discrepancy_report_totals():
    report = discrepancy_report()
    assert report["anticomm"] == []
    assert report["product"] == []
    assert len(report["generic"]) == 20
    total = sum(len(report[name]) for name in TABLE_NAMES)
    assert total == 20


def test_generic_table_uses_anticommutator_rule():
    # where the print is clean, the letters follow the anticommutator table
    derived = emit_table(OpKind.ANTICOMMUTATOR)
    mismatched = {(str(m.row), str(m.col)) for m in compare_table("generic")}
    from quatype.qtype import TYPE_ORDER
    for i, t1 in enumerate(TYPE_ORDER):
        for j, t2 in enumerate(TYPE_ORDER):
            if (str(t1), str(t2)) in mismatched:
                continue
            assert cell_to_qtype(GENERIC_PRINTED[i][j]) == derived[i][j]
