"""Workbench for the modal logic of essence and accident.

The concrete syntax writes the essence operator as `o`, accident as `A`,
box as `[]` and diamond as `<>`.  See formula for parsing, kripke for
models, semantics for truth and definability, bisim for the matching notion
of bisimulation and bounded equivalence, hilbert for proof checking, and
decide for satisfiability and validity procedures.
"""

from .formula import (
    Acc,
    And,
    Bot,
    Box,
    Dia,
    Ess,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    modal_depth,
    parse,
    render,
    subformulas,
    substitute,
    to_lea,
    to_ml,
    variables,
)
from .kripke import (
    FrameClass,
    FrameProperty,
    Model,
    PointedModel,
    SelfLoopMode,
    add_self_loops,
    disjoint_union,
    enumerate_frames,
    has_property,
    in_class,
    model_from_json,
    model_from_obj,
    model_to_json,
    model_to_obj,
)
from .semantics import (
    DefinabilityVerdict,
    check_definability,
    extension,
    satisfies,
    valid_on_frame,
)
from .bisim import (
    BisimRelation,
    BisimViolation,
    Contraction,
    bounded_equivalent,
    box_bisimilar,
    circ_bisimilar,
    circ_certificate,
    contract,
    is_circ_bisimulation,
    largest_circ_bisimulation,
    pairs_from_obj,
    pairs_to_obj,
)
from .hilbert import (
    CheckReport,
    Derivation,
    DerivationSyntaxError,
    Line,
    ScanReport,
    System,
    check_derivation,
    gen_conj_derivation,
    is_axiom_instance,
    is_tautology,
    match_schema,
    parse_derivation,
    render_derivation,
    soundness_scan,
)
from .decide import (
    CrosscheckReport,
    DecideError,
    Verdict,
    crosscheck,
    satisfiable,
    valid,
)
