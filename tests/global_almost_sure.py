"""Reference almost-sure analysis: the whole-game shrinking loop.

This is the qualitative analysis the solver ran before it decided almost-sure
membership one strongly connected component at a time, successors first. It
is kept here, unchanged in behaviour, as a differential oracle for
:func:`tptg.solver._almost_sure` (same signature and result: the almost-sure
set and the spoiling moves) and :func:`tptg.solver.qualitative_reach`. Its
attractor is the whole-game one kept in `retired_solver.py`.
"""

from typing import Iterable, Union

from tptg.game import Tsg
from tptg.solver import _check_two_players, _reach_maximizer, _smallest, _target_set

from retired_solver import _attractor


def global_almost_sure(
    game: Tsg, targets: frozenset[int], reacher, pin: dict[int, int] | None = None
) -> tuple[frozenset[int], dict[int, int]]:
    """States from which `reacher` forces `targets` with probability one, and
    the index of a spoiling move for each state of the other side outside them.

    Greatest fixpoint: shrink the candidate set to the attractor of the
    targets over the moves that stay in it until no state drops. A dropped
    state of the avoiding side spoils with its (delay, action)-smallest move
    that leaves the candidate set, or else with the smallest that misses the
    attractor; playing these keeps the target unreached with positive
    probability from every dropped state. `pin` maps states of `reacher` to
    the index of the only move each may use.
    """
    pin = pin or {}
    allowed = [(pin[s],) if s in pin else range(len(ms)) for s, ms in enumerate(game.moves)]
    exists = game.player_states(reacher)
    candidate = set(range(len(game.states)))
    spoilers: dict[int, int] = {}
    while True:
        usable = {}
        for s in candidate:
            moves = game.moves[s]
            stay = {
                mi for mi in allowed[s]
                if all(t in candidate for t, p in moves[mi].branches if p > 0)
            }
            if s in exists or len(stay) == len(allowed[s]):
                usable[s] = stay
        attracted = _attractor(game, targets, exists, usable)
        dropped = [s for s in candidate if s not in attracted]
        if not dropped:
            return frozenset(candidate), spoilers
        for s in dropped:
            moves = game.moves[s]
            if s in exists or not moves:
                continue
            leave = [i for i, m in enumerate(moves) if any(p > 0 and t not in candidate for t, p in m.branches)]
            miss = [i for i, m in enumerate(moves) if not any(p > 0 and t in attracted for t, p in m.branches)]
            spoilers[s] = _smallest(moves, leave or miss)
        candidate = set(attracted)


def global_qualitative_reach(
    game: Tsg, targets: Union[str, Iterable[int]], direction: str = "maxmin"
) -> tuple[frozenset[int], frozenset[int]]:
    """Pure graph analysis: (probability-0 states, probability-1 states)."""
    _check_two_players(game)
    target_set = _target_set(game, targets)
    maximizer = game.players[_reach_maximizer(direction)]
    every = {s: set(range(len(moves))) for s, moves in enumerate(game.moves)}
    positive = _attractor(game, target_set, game.player_states(maximizer), every)
    prob0 = frozenset(s for s in range(len(game.states)) if s not in positive)
    prob1, _ = global_almost_sure(game, target_set, maximizer)
    return prob0, prob1
