"""Coalitional rankings: selection rules, axioms, and exhaustive verification.

The package models rankings of all nonempty coalitions of a small
universe, implements six set-valued selection rules over them, provides
executable checkers for eleven selection axioms, and verifies the
standing results about them by exhaustive enumeration at desk scale.
"""

from .axioms import (
    AXIOMS,
    INAPPLICABLE,
    SATISFIED,
    VIOLATED,
    Verdict,
    Witness,
    check_concomitant,
    check_downward_monotonicity,
    check_relative_agreement,
    check_relative_difference,
    check_relative_joint,
    check_slide_independence,
    check_top_agreement,
    check_top_difference,
    check_top_joint,
    lookup_axiom,
    replay,
)
from .core import (
    BETTER,
    TIE,
    WORSE,
    BanzhafTally,
    CoalitionalRanking,
    Universe,
    banzhaf,
    compare,
    concomitant_set,
    mask_members,
    members_mask,
    relabel,
    split_instances,
    theta,
    top_intersection,
    validate_ranking,
)
from .enumeration import (
    EXHAUSTIVE,
    RankingStream,
    Sample,
    enumerate_rankings,
    fubini,
    sample_ranking,
)
from .errors import (
    DuplicateCoalitionError,
    EmptyClassError,
    EmptyCoalitionError,
    InvalidMoveError,
    MillrankError,
    MissingCoalitionError,
    OutOfUniverseError,
    RankingSyntaxError,
    UniverseMismatchError,
    UniverseTooLargeError,
    UnknownAxiomError,
    UnknownRuleError,
)
from .solutions import (
    RULES,
    const_x,
    f_star,
    les,
    lookup_rule,
    obi,
    plurality,
    split_plurality,
)
from .textio import load_ranking, parse_ranking, parse_ranking_json, render_ranking
from .transforms import (
    DeteriorationSpec,
    SlideMove,
    apply_deterioration,
    apply_slide,
    enumerate_deterioration_specs,
    enumerate_deteriorations,
    is_deterioration,
)
from .verify import (
    MatrixCell,
    MatrixReport,
    SweepReport,
    check_single,
    find_violation,
    independence_report,
    les_stag_instance,
    prop1_report,
    prop3_matrix,
    relative_construction,
    split_plurality_slide_instance,
    sweep,
    sweep_cells,
    theorem1_probe,
)

__version__ = "0.1.0"
