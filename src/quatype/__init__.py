"""Exact Clifford algebra arithmetic with a mod-4 grading layer.

The package has three levels: a blade kernel (`blades`), sparse multivector
arithmetic over it (`multivector`), and the mod-4 type layer with its
composition tables, subspace patterns, and verification harness (`qtype`,
`verify`).  `exprio` and `cli` provide text and JSON interfaces.

`import quatype` loads `blades`, `multivector` and `qtype`.  The names in
`__all__` that those imports do not bind load lazily: the five text and
JSON names (`ExprSyntaxError`, `parse_expression`, `format_expression`,
`mv_to_document`, `mv_from_document`) load `exprio`, and the rest load the
verifier (`verify`), the first time one of them is read from the package
(`quatype.run_suite`, `from quatype import parse_expression`, or `from
quatype import *`) or on `import quatype.exprio` or `import
quatype.verify`.  The CLI loads the verifier at import and `exprio` only in
the commands that read or write expressions, and the verifier loads
`exprio` only to write a counterexample; so a process that only does
arithmetic compiles neither, and a passing verdict never compiles `exprio`.
`multivector` loads `_matrix`, the product's matrix path, on the first
product that takes it.
No import of the package loads `dataclasses`, `decimal` or `csv`: the
value classes build on `_frozen.Frozen`.
"""

from .blades import Signature, blade_indices, canonical_sign, grade, mask_from_indices
from .multivector import (
    AlgebraError,
    ConvergenceFailure,
    Field,
    FieldMismatch,
    Multivector,
    RankOutOfRange,
    SignatureMismatch,
)
from .qtype import (
    CoeffClass,
    EMPTY_TYPE,
    FULL_TYPE,
    OpKind,
    QType,
    SubspacePattern,
    TYPE_ORDER,
    detect_qtype,
    emit_table,
    is_closed,
    main_compose,
    pattern_compose,
    pattern_of,
    qtype_compose,
)
__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CheckConfig",
    "CheckReport",
    "CheckStatus",
    "CoeffClass",
    "ConvergenceFailure",
    "Counterexample",
    "EMPTY_TYPE",
    "ExprSyntaxError",
    "FULL_TYPE",
    "Field",
    "FieldMismatch",
    "Multivector",
    "OpKind",
    "QType",
    "RankOutOfRange",
    "Signature",
    "SignatureMismatch",
    "SplitMix64",
    "Strategy",
    "SubspacePattern",
    "TYPE_ORDER",
    "UnknownCheck",
    "WC_PATTERN",
    "blade_indices",
    "canonical_sign",
    "check_grade_pattern",
    "check_pattern_closure",
    "check_quaternion_axioms",
    "check_rank_coincidence",
    "check_subalgebra_theorems",
    "check_theorem5",
    "check_theorem6",
    "check_theorem6_7",
    "check_theorem7",
    "check_type_table",
    "check_wc_membership",
    "detect_qtype",
    "emit_table",
    "format_expression",
    "grade",
    "is_closed",
    "is_in_wc",
    "is_pseudo_unitary",
    "main_compose",
    "mask_from_indices",
    "mv_from_document",
    "mv_to_document",
    "parse_expression",
    "pattern_compose",
    "pattern_of",
    "qtype_compose",
    "run_suite",
]


_EXPRIO_NAMES = frozenset({
    "ExprSyntaxError",
    "format_expression",
    "mv_from_document",
    "mv_to_document",
    "parse_expression",
})


def __getattr__(name):
    # Python asks here only for names missing from the package dict, so an
    # `__all__` name that gets here is one of exprio's or the verifier's.
    # Not stored in the package dict, so a name always reads what its
    # module holds now, even after something replaces it there.
    if name in _EXPRIO_NAMES:
        from . import exprio
        return getattr(exprio, name)
    if name in __all__:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
