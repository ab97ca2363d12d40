"""Salmagundy: an executable two-player resolution game on annotated posets.

Dido nominates blowup centers and places calls that spawn related quests;
Mephisto answers every move with rule-checked response scenarios. The
package provides the full rule system (boards, scenarios, transforms, the
four call types, commutativity), a validating umpire with replayable
traces, answer policies for Mephisto, a deterministic winning strategy for
Dido, generators, and a bounded exhaustive explorer.
"""

from .board import (
    BLOWUP,
    Board,
    BoardTransform,
    NodeId,
    REFINEMENT,
    Violation,
    board_from_json,
    board_to_dot,
    board_to_json,
    blowup_transform,
    trivial_refinement,
    validate_board,
    validate_board_transform,
)
from .dido import DidoStrategy, StrategyError, dms_less, measure_of
from .game import (
    Bundle,
    BundleError,
    GameState,
    Move,
    Quest,
    apply_round,
    bundle_from_json,
    bundle_to_json,
    move_from_json,
    move_to_json,
    new_game,
    relation_from_json,
    relation_to_json,
    replay_trace,
    round_to_json,
    validate_bundle,
)
from .harness import (
    ExploreReport,
    GameResult,
    explore,
    gen_board,
    gen_monomial_scenario,
    gen_scenario,
    play_game,
    scenario_to_dot,
)
from .mephisto import (
    ADVERSARIAL,
    CANONICAL,
    CapError,
    NoValidBundle,
    Policy,
    RANDOM,
    respond,
)
from .quests import (
    QuestRelation,
    descent_check,
    quotient_bound,
    quotient_response,
    relaxation_response,
    transversality_response,
)
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    admissible_centers,
    complete_factor,
    extend_factor,
    is_tight,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
    zero_factor,
)
from .transform import (
    capped_transport,
    commutes,
    quotient_lifted_factor,
    transport_relation,
    validate_blowup_transform,
)
from .values import INF, ONE, Q, ZERO, Value, format_value, is_finite, parse_value

__version__ = "0.1.0"
