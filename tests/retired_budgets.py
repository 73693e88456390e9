"""Reference certificate of the induction over the time budget: two passes.

This is how :func:`tptg.solver.time_bounded` certified its values before one
visit per (state, budget) cell backed up the value, the chosen move and the
chain value together. A first `_budgets` call filled the values and kept each
state's chosen move per budget; a second call ran the same induction over
those chosen moves alone, and its values were the chain the certificate
compared. Delays of a model with no clock were spelled out per cell by
`spell_delays`. It is kept here, unchanged in behaviour, as a differential
oracle for the chain vector the one visit returns.
"""

import math

from tptg.game import move_successors, strongly_connected
from tptg.semantics import spell_delays
from tptg.solver import _opt_for, _reach_maximizer, _target_set, _update


def two_pass(game, objective, top: int):
    """The values per budget 0..`top` and the chain values of the chosen
    moves, or None where zero-delay moves form a cycle."""
    moves, order = game.moves, []
    instant = move_successors([[m for m in ms if m.time == 0] for ms in moves])
    for states, cyclic in strongly_connected(instant, len(moves)):
        if cyclic:
            return None
        order.append(states[0])
    clockless = not game.states[game.initial].values  # a delay-1 move stands for every longer one
    within = (lambda s, b: spell_delays(moves[s], b + 1)) if clockless else (lambda s, b: moves[s])
    targets = _target_set(game, objective.target)
    levels, choices = _budgets(game, objective, targets, order, top, True, within)
    chain = _budgets(game, objective, targets, order, top, True, lambda s, b: choices[b][s])[0]
    return levels, chain


def _budgets(game, objective, targets, order, top: int, live: bool, within):
    """Values per budget 0..`top` over the moves ``within(s, b)``, and each
    state's chosen move as a 0- or 1-tuple. A move of delay d reads budget
    b - d, or an exhausted one past b (probability 0, price infinite);
    zero-delay moves read budget b, `order` visiting successors first. A
    sure flag, that the reaching side forces the target, gives the pass's
    start value; where the pass backs up (if `live`), a value takes the best
    backup and the first optimal move, elsewhere the first keeping the flag."""
    prices = objective.kind == "exp-price"
    maximizer = _reach_maximizer(objective.direction)
    reacher = game.players[1 - maximizer if prices else maximizer]
    opt, n, inf = _opt_for(game, objective.direction), len(game.moves), math.inf
    spent = ([inf if prices else 0.0] * n, [False] * n)
    levels, choices = [], []  # levels[b]: the values and sure flags at budget b
    for b in range(top + 1):
        values, sure, choice = [0.0] * n, [False] * n, [()] * n
        for s in order:
            ms, flags, step = within(s, b), [], []
            for _, branches, price, d in ms:
                at, ok = (values, sure) if d == 0 else levels[b - d] if d <= b else spent
                backup, forced = 0, None
                for t, p in branches:
                    if p > 0:
                        backup += p * at[t]
                        forced = ok[t] and forced is not False  # None until a branch is seen
                step.append(price + backup if prices else backup)
                flags.append(bool(forced))
            target = s in targets
            sure[s] = forced = target or (any(flags) if game.owner[s] == reacher else bool(flags) and all(flags))
            values[s] = (0.0 if forced else inf) if prices else (1.0 if forced else 0.0)
            if target or not ms:
                continue
            c = flags.index(forced)
            if live and (forced if prices else not forced):
                best = opt[s](step)
                _update(values, s, best)
                c = step.index(best)
            choice[s] = (ms[c],)
        levels.append((values, sure))
        choices.append(choice)
    return [values for values, _ in levels], choices
