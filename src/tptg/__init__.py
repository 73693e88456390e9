"""Verification and strategy synthesis for turn-based probabilistic timed
games, analysed through their integer-time (digital clocks) semantics."""

from .clocks import Atom, ClockConstraint, TRUE, clock_ge, clock_le
from .errors import ModelError, ParseError, StateLimitError
from .game import (
    DEADLOCK_LABEL,
    Move,
    Tsg,
    TsgPath,
    coalition_game,
    from_json,
    game_stats,
    make_game,
    to_json,
)
from .model import (
    Diagnostic,
    PriceStructure,
    ProbBranch,
    Tptg,
    compose,
    errors_only,
    max_constants,
    validate_assumptions,
)
from .semantics import DigitalState, bound_time, build, reweigh
from .solver import (
    Objective,
    SolveResult,
    expected_price,
    prob_reach,
    qualitative_reach,
    solve,
    synthesize,
)
from .simulation import estimate, simulate, uniform_profile
from .dsl import ModelSource, parse, parse_property
from .elaborate import instantiate, to_tptg
from .casestudies import (
    gen_nonrepudiation,
    gen_taskgraph,
    nonrepudiation_source,
    nonrepudiation_text,
    taskgraph_source,
    taskgraph_text,
)

__version__ = "0.1.0"
