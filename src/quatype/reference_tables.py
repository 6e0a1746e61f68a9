"""Hand-transcribed typeset versions of the composition tables.

These transcriptions are kept solely to cross-check the rule-generated
tables.  They are faithful to their printed source, which contains visibly
corrupted cells (whole rows shifted or repeated), so disagreement is
expected: ``compare_table`` lists every mismatching cell and the generated
values stay authoritative.

Three tables are covered, all over the fifteen nonempty types in the fixed
presentation order: the generic quaternion-type operation (written with
letters E, I, J, K for the main types), the anticommutator, and the
geometric product.  ``A`` denotes the full type in all three.
"""

from __future__ import annotations

from ._frozen import Frozen
from .qtype import TYPE_ORDER, FULL_TYPE, OpKind, QType, emit_table

_LETTER_TO_DIGIT = {"E": "0", "I": "1", "J": "2", "K": "3"}

# Generic operation table (letter form).  Each row: 15 cells in TYPE_ORDER.
GENERIC_PRINTED = [
    ["E", "I", "J", "K", "EI", "EJ", "EK", "IJ", "IK", "JK", "EIJ", "EIK", "EJK", "IJK", "A"],
    ["I", "E", "K", "J", "EI", "IK", "IJ", "EK", "EJ", "JK", "EIK", "EIJ", "IJK", "EJK", "A"],
    ["J", "K", "E", "I", "JK", "EJ", "IJ", "EK", "IK", "EI", "EJK", "IJK", "EIJ", "EIK", "A"],
    ["K", "J", "I", "E", "JK", "IK", "EK", "IJ", "EJ", "EI", "IJK", "EJK", "EIK", "EIJ", "A"],
    ["EI", "EI", "JK", "JK", "EI", "A", "A", "A", "A", "JK", "A", "A", "A", "A", "A"],
    ["EJ", "EJ", "EJ", "EJ", "EJ", "A", "A", "A", "A", "IK", "A", "A", "A", "A", "A"],
    ["EK", "EK", "IJ", "IJ", "EK", "A", "A", "EK", "IJ", "A", "A", "A", "A", "A", "A"],
    ["IJ", "IJ", "EK", "EK", "IJ", "A", "A", "IJ", "EK", "A", "A", "A", "A", "A", "A"],
    ["IK", "IK", "EJ", "EJ", "A", "IK", "A", "A", "EJ", "A", "A", "A", "A", "A", "A"],
    ["JK", "JK", "EI", "EI", "JK", "A", "A", "A", "A", "EI", "A", "A", "A", "A", "A"],
    ["EIJ", "EIK", "EJK", "IJK", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["EIK", "EIJ", "IJK", "EJK", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["EJK", "IJK", "EIJ", "EIK", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["IJK", "EJK", "EIK", "EIJ", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
]

# Anticommutator table (digit form).
ANTICOMM_PRINTED = [
    ["0", "1", "2", "3", "01", "02", "03", "12", "13", "23", "012", "013", "023", "123", "A"],
    ["1", "0", "3", "2", "01", "13", "12", "03", "02", "23", "013", "012", "123", "023", "A"],
    ["2", "3", "0", "1", "23", "02", "12", "03", "13", "01", "023", "123", "012", "013", "A"],
    ["3", "2", "1", "0", "23", "13", "03", "12", "02", "01", "123", "023", "013", "012", "A"],
    ["01", "01", "23", "23", "01", "A", "A", "A", "A", "23", "A", "A", "A", "A", "A"],
    ["02", "13", "02", "13", "A", "02", "A", "A", "13", "A", "A", "A", "A", "A", "A"],
    ["03", "12", "12", "03", "A", "A", "03", "12", "A", "A", "A", "A", "A", "A", "A"],
    ["12", "03", "03", "12", "A", "A", "12", "03", "A", "A", "A", "A", "A", "A", "A"],
    ["13", "02", "13", "02", "A", "13", "A", "A", "02", "A", "A", "A", "A", "A", "A"],
    ["23", "23", "01", "01", "23", "A", "A", "A", "A", "01", "A", "A", "A", "A", "A"],
    ["012", "013", "023", "123", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["013", "012", "123", "023", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["023", "123", "012", "013", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["123", "023", "013", "012", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
]

# Geometric product table (digit form).
PRODUCT_PRINTED = [
    ["02", "13", "02", "13", "A", "02", "A", "A", "13", "A", "A", "A", "A", "A", "A"],
    ["13", "02", "13", "02", "A", "13", "A", "A", "02", "A", "A", "A", "A", "A", "A"],
    ["02", "13", "02", "13", "A", "02", "A", "A", "13", "A", "A", "A", "A", "A", "A"],
    ["13", "02", "13", "02", "A", "13", "A", "A", "02", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["02", "13", "02", "13", "A", "02", "A", "A", "13", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["13", "02", "13", "02", "A", "13", "A", "A", "02", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
    ["A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A", "A"],
]


def cell_to_qtype(cell: str) -> QType:
    """Normalize a printed cell ("02", "EIK", "A") to a QType."""
    if cell == "A":
        return FULL_TYPE
    digits = "".join(_LETTER_TO_DIGIT.get(ch, ch) for ch in cell)
    return QType.from_string(digits)


class CellMismatch(Frozen):
    row: QType
    col: QType
    printed: QType
    derived: QType

    def __init__(self, row: QType, col: QType, printed: QType, derived: QType) -> None:
        self._store(row, col, printed, derived)

    def __str__(self) -> str:
        return (f"({self.row}, {self.col}): printed {self.printed}, "
                f"derived {self.derived}")


# The generic operation satisfies the same main-type identities as the
# anticommutator (unit at type 0), so its derived table is the
# anticommutator table up to the letter relabeling.
_PRINTED = {
    "generic": (GENERIC_PRINTED, OpKind.ANTICOMMUTATOR),
    "anticomm": (ANTICOMM_PRINTED, OpKind.ANTICOMMUTATOR),
    "product": (PRODUCT_PRINTED, OpKind.GEOMETRIC),
}

TABLE_NAMES = tuple(_PRINTED)


def compare_table(name: str) -> list[CellMismatch]:
    """Cells of one transcribed table that disagree with the generated one."""
    if name not in _PRINTED:
        raise ValueError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
    printed_rows, op = _PRINTED[name]
    derived = emit_table(op)
    out = []
    for i, t1 in enumerate(TYPE_ORDER):
        for j, t2 in enumerate(TYPE_ORDER):
            printed = cell_to_qtype(printed_rows[i][j])
            if printed != derived[i][j]:
                out.append(CellMismatch(t1, t2, printed, derived[i][j]))
    return out


def discrepancy_report() -> dict[str, list[CellMismatch]]:
    """Mismatching cells for every transcribed table, keyed by table name."""
    return {name: compare_table(name) for name in TABLE_NAMES}
