"""Template-based retrobiosynthesis with neural pathway ranking.

Backward enzymatic reaction templates enumerate precursor candidates for a
target molecule; one-step and two-step neural rankers (plus a Tanimoto
baseline) score them, and a beam search chains steps into full pathways.

The public names below are imported from their module on first access
(PEP 562), so ``import retrobio`` loads no submodule, and numpy is loaded
only with a module that computes with it.
"""

import importlib

_MODULE_OF = {
    name: module
    for module, names in (
        ("molgraph", "Atom Bond MolecularGraph add_explicit_hydrogens canonicalize "
                     "parse_smiles remove_explicit_hydrogens write_smiles"),
        ("pattern", "CandidatePrecursor ReactionTemplate apply_template "
                    "enumerate_precursors find_matches load_templates parse_smarts "
                    "parse_smarts_template"),
        ("fingerprint", "Fingerprint Fingerprinter ReactionFeature molecule_fingerprints "
                        "reaction_feature tanimoto tversky"),
        ("neural", "MlpModel TrainConfig forward gradient_check load_weights nn1pr_spec "
                   "nn2pr_spec save_weights train"),
        ("ranking", "evaluate_ranking rank_candidates score_baseline"),
        ("pipeline", "Pathway SearchConfig SearchNode run_retro"),
    )
    for name in names.split()
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
