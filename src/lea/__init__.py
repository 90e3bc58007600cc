"""Workbench for the modal logic of essence and accident.

The concrete syntax writes the essence operator as `o`, accident as `A`,
box as `[]` and diamond as `<>`.  See formula for parsing, kripke for
models, semantics for truth and definability, bisim for the matching notion
of bisimulation and bounded equivalence, hilbert for proof checking, and
decide for satisfiability and validity procedures.

The package is lazy (PEP 562): `import lea` loads none of its modules.
Reading an exported name imports the module that defines it, and reading
`lea.<module>` imports that module, so a command line that needs only the
formula layer pays for nothing else.
"""

# The exported names, by the module that defines (or re-exports) them.
_EXPORTS = {
    "formula": (
        "Acc", "And", "Bot", "Box", "Dia", "Ess", "Formula", "Iff", "Implies", "Not",
        "Or", "ParseError", "Top", "Var", "modal_depth", "parse", "render",
        "subformulas", "substitute", "to_lea", "to_ml", "variables",
    ),
    "kripke": (
        "FrameClass", "FrameProperty", "Model", "PointedModel", "SelfLoopMode", "Verdict",
        "add_self_loops", "disjoint_union", "has_property", "in_class",
        "model_from_json", "model_from_obj", "model_to_json", "model_to_obj",
    ),
    "semantics": (
        "check_definability", "extension", "frame_countermodel", "satisfies",
        "valid_on_frame",
    ),
    "bisim": (
        "BisimRelation", "BisimViolation", "Contraction", "bounded_equivalent",
        "box_bisimilar", "circ_bisimilar", "circ_certificate", "contract",
        "is_circ_bisimulation", "largest_circ_bisimulation", "pairs_from_obj",
        "pairs_to_obj",
    ),
    "hilbert": (
        "Derivation", "DerivationSyntaxError", "Line", "System", "check_derivation",
        "gen_conj_derivation", "is_axiom_instance", "is_tautology", "match_schema",
        "parse_derivation", "render_derivation", "soundness_scan",
    ),
    "decide": ("DecideError", "satisfiable", "valid"),
    "sweep": ("ValuationLimitError",),
}
_MODULES = (*_EXPORTS, "limits", "cli")

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    module = next((m for m, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
