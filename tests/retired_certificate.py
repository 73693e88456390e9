"""Reference certificate: the induced chain re-solved as a game copy.

This is the optimality certificate the solver used before it evaluated the
induced chain on the chosen move indices. It pins the profile in a copy of
the game (`restrict_to_profile`, a fresh `Tsg` that decomposes itself),
re-solves the copy with the full qualitative analysis and value kernel, and
compares on the states a forward search from the initial state reaches. It
is kept here, unchanged in behaviour, as a differential oracle for
:func:`tptg.solver._certify`; it takes the profile as move labels, not move
indices.
"""

import math
from typing import Sequence

from tptg.errors import ModelError
from tptg.game import Tsg
from tptg.solver import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    Objective,
    _iterate,
    _opt_for,
    _target_set,
    qualitative_reach,
)


def restrict_to_profile(game: Tsg, profile: dict[int, str]) -> Tsg:
    """Game where states in `profile` keep only their selected move."""
    new_moves = (
        tuple(m for m in moves if m.label == profile[s]) if s in profile else moves
        for s, moves in enumerate(game.moves)
    )
    return Tsg(
        states=game.states,
        initial=game.initial,
        players=game.players,
        owner=game.owner,
        moves=tuple(new_moves),
        labels=game.labels,
    )


def chain_reachable(game: Tsg, profile: dict[int, str]) -> list[int]:
    seen = {game.initial}
    stack = [game.initial]
    while stack:
        s = stack.pop()
        if s not in profile:
            continue
        for move in game.moves[s]:
            if move.label != profile[s]:
                continue
            for t, p in move.branches:
                if p > 0 and t not in seen:
                    seen.add(t)
                    stack.append(t)
    return sorted(seen)


def certify(
    game: Tsg,
    objective: Objective,
    vector: Sequence[float],
    profile: dict[int, str],
    tol: float,
):
    # Optimality holds along the play the profile pair actually induces;
    # off-path states with infinite value keep arbitrary recorded choices.
    chain = restrict_to_profile(game, profile)
    target = objective.target
    if objective.kind == "prob-reach":
        check = prob_reach_values_only(chain, target, objective.direction, tol)
    else:
        check = expected_price_values_only(chain, target, objective.direction, tol)
    worst = 0.0
    for s in chain_reachable(game, profile):
        a, b = vector[s], check[s]
        if math.isinf(a) and math.isinf(b):
            continue
        worst = max(worst, abs(a - b))
    if worst > 10 * tol:
        raise ModelError(
            f"synthesized profile fails its optimality certificate: induced chain "
            f"deviates by {worst:.3e} (> {10 * tol:.1e})"
        )


def prob_reach_values_only(game, targets, direction, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Reach probabilities without synthesis (used for certificates)."""
    target_set = _target_set(game, targets)
    prob0, prob1 = qualitative_reach(game, target_set, direction)
    values = [1.0 if s in prob1 else 0.0 for s in range(len(game.states))]
    active = [s for s in range(len(game.states)) if s not in prob0 and s not in prob1]
    _iterate(game.moves, values, active, _opt_for(game, direction), tol, max_iters, prices=False)
    return values


def expected_price_values_only(game, targets, direction, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Expected prices without synthesis (used for certificates)."""
    target_set = _target_set(game, targets)
    reach_direction = "minmax" if direction == "maxmin" else "maxmin"
    _, prob1 = qualitative_reach(game, target_set, reach_direction)
    values = [0.0 if s in prob1 else math.inf for s in range(len(game.states))]
    active = [s for s in range(len(game.states)) if s in prob1 and s not in target_set]
    _iterate(game.moves, values, active, _opt_for(game, direction), tol, max_iters, prices=True)
    return values
