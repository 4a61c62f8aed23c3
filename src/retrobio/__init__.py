"""Template-based retrobiosynthesis with neural pathway ranking.

Backward enzymatic reaction templates enumerate precursor candidates for a
target molecule; one-step and two-step neural rankers (plus a Tanimoto
baseline) score them, and a beam search chains steps into full pathways.
"""

from .molgraph import (
    Atom,
    Bond,
    MolecularGraph,
    add_explicit_hydrogens,
    canonicalize,
    parse_smiles,
    remove_explicit_hydrogens,
    write_smiles,
)
from .pattern import (
    CandidatePrecursor,
    ReactionTemplate,
    apply_template,
    enumerate_precursors,
    find_matches,
    load_templates,
    parse_smarts,
    parse_smarts_template,
)
from .fingerprint import (
    Fingerprint,
    Fingerprinter,
    ReactionFeature,
    molecule_fingerprints,
    reaction_feature,
    tanimoto,
    tversky,
)
from .neural import (
    MlpModel,
    TrainConfig,
    forward,
    gradient_check,
    load_weights,
    nn1pr_spec,
    nn2pr_spec,
    save_weights,
    train,
)
from .ranking import evaluate_ranking, rank_candidates, score_baseline, score_nn1, score_nn2
from .pipeline import Pathway, SearchConfig, SearchNode, run_retro

__version__ = "0.1.0"
