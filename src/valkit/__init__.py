"""Exact invariants of simple algebraic valued-field extensions.

valkit computes, in exact rational arithmetic, the truncation-valuation
invariants attached to a key-polynomial presentation of a simple algebraic
extension of valued fields, the final segments those invariants generate,
and the verdict on whether the module of Kahler differentials of the
valuation-ring extension vanishes -- decided through three independently
implemented, cross-checked criteria.
"""

from .errors import (
    BackendMismatchError,
    ConfigError,
    EmptySequenceError,
    HypothesisViolatedError,
    InconclusiveError,
    LawMismatchError,
    NoWitnessError,
    NonMonicBaseError,
    ScenarioDataError,
    StabilizationBudgetExceededError,
    ValkitError,
    ValueNotRepresentableError,
)
from .fields import Backend, HahnElem, PAdicRational, valuation
from .groups import (
    CanonicalSegment,
    ClosedForm,
    Diverging,
    FiniteList,
    GroupElem,
    SegmentRelation,
    Tail,
    canonicalize,
    largest_delta,
    rat1,
    segment_compare,
    wlim,
)
from .kahler import (
    InvariantRecord,
    InvariantStream,
    Verdict,
    VerdictKind,
    b_set,
    classify,
    ideal_inclusion_check,
    invariant_stream,
    omega_verdict,
)
from .keyseq import (
    KeyIndex,
    KeySequence,
    PlateauFamily,
    ScheduleStage,
    artin_schreier_family,
    artin_schreier_poly,
    find_witness,
    hensel_family,
)
from .poly import Poly, QExpansion, derivative, q_expand, resultant
from .truncation import NuOracle

__version__ = "0.1.0"
