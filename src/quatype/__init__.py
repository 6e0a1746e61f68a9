"""Exact Clifford algebra arithmetic with a mod-4 grading layer.

The package has three levels: a blade kernel (`blades`), sparse multivector
arithmetic over it (`multivector`), and the mod-4 type layer with its
composition tables, subspace patterns, and verification harness (`qtype`,
`verify`).  `exprio` and `cli` provide text and JSON interfaces.

`import quatype` loads `blades`, `multivector`, `qtype` and `exprio`.  The
names in `__all__` that those imports do not bind are the verifier's; they
load lazily.  The verifier (`verify`) loads the first time one of them is
read from the package (`quatype.run_suite`, `from quatype import
CheckConfig`, or `from quatype import *`), on `import quatype.verify`, or
through the CLI, so a process that only does arithmetic never compiles it.
No import of the package loads `dataclasses` or `decimal`: the value
classes build on `_frozen.Frozen`.
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
from .exprio import (
    ExprSyntaxError,
    format_expression,
    mv_from_document,
    mv_to_document,
    parse_expression,
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


def __getattr__(name):
    # Python asks here only for names missing from the package dict, so an
    # `__all__` name that gets here is one of the verifier's.  Not stored
    # in the package dict, so a name always reads what `quatype.verify`
    # holds now, even after something replaces it there.
    if name in __all__:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
