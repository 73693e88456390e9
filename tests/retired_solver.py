"""Reference solve path: separate walks for rounds, values and strategy.

This is how :func:`tptg.prob_reach` and :func:`tptg.expected_price` solved a
game before they took drop rounds, values and the strategy from one
successors-first visit of `Tsg.components`: an unpinned almost-sure pass,
value iteration with its own Tarjan search over the active states, then
synthesis with a backup of every move, one global tie-settling attractor,
a pinned almost-sure pass for the stall check and the certificate. It is
kept here, unchanged in behaviour, as a differential oracle. `_iterate` and
`_certify` are looked up in this module at call time, so a test can swap in
another value kernel for both. Its attractor reads the whole-game reverse
index the games once cached, copied here (`predecessors`, `_attractor`) so
that the oracle does not depend on the solver's SCC-local reverse maps.
Its almost-sure search of a cyclic SCC is the solver's as it was when it
still took the reaching side's pinned moves (`_cyclic_rounds`, copied here
with the solver's layered attractor and SCC-local map), since the solver
now pins by a view of the game instead.
"""

import math
from functools import reduce
from operator import add
from typing import Iterable, Sequence, Union

from tptg.errors import ModelError
from tptg.game import Move, Tsg, move_successors
from tptg.solver import (
    _MONOTONE_SLACK,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    Objective,
    SolveResult,
    _check_tol,
    _check_two_players,
    _opt_for,
    _predecessors,
    _reach_maximizer,
    _smallest,
    _target_set,
)
from tptg.solver import _attractor as _layered_attractor

from retired_scc import strongly_connected


def predecessors(game: Tsg) -> list[list[tuple[int, int]]]:
    """Per state, the (state, move index) pairs with a positive branch into it,
    computed once per game and kept on it, as `Tsg.predecessors` was."""
    if "predecessors" not in game.__dict__:
        preds: list[list[tuple[int, int]]] = [[] for _ in game.states]
        for s, moves in enumerate(game.moves):
            for mi, move in enumerate(moves):
                for target, prob in move.branches:
                    if prob > 0:
                        preds[target].append((s, mi))
        game.__dict__["predecessors"] = preds
    return game.__dict__["predecessors"]


def _attractor(
    game: Tsg,
    targets: Iterable[int],
    exists: frozenset[int],
    usable: dict[int, set[int]],
) -> dict[int, set[int]]:
    """Layered two-player attractor of `targets`, with the moves that hit.

    A state in `exists` joins once one of its usable moves has a positive
    branch into an earlier layer; any other state joins once it has usable
    moves and all of them have such a branch. `usable[s]` holds the usable
    move indices of s (a state missing from it has none). Returns, for each
    member, the indices of the usable moves that hit when it joined (none for
    targets).
    """
    preds = predecessors(game)
    member: dict[int, set[int]] = {t: set() for t in targets}
    hits: dict[int, set[int]] = {}
    frontier = list(member)
    while frontier:
        touched = set()
        for t in frontier:
            for s, mi in preds[t]:
                if s in member or mi not in usable.get(s, ()):
                    continue
                hits.setdefault(s, set()).add(mi)
                touched.add(s)
        frontier = []
        for s in touched:
            if s in exists or len(hits[s]) == len(usable[s]):
                member[s] = hits[s]
                frontier.append(s)
    return member


def _cyclic_rounds(game, states, targets, reacher, pin, rounds):
    """Set the drop rounds of one cyclic SCC whose exits have theirs: round r
    of the almost-sure loop shrinks the candidates to the attractor of
    `targets` over the moves (of `pin` only) that stay among them. Once the
    last exit has dropped, the first round that drops nothing is final."""
    moves = game.moves
    inside = set(states)
    preds = _predecessors(moves, states)
    exits = [t for t in preds if t not in inside]
    last = max((rounds[t] for t in exits if rounds[t] != math.inf), default=0)
    exists = {s for s in states if game.owner[s] == reacher}
    seeds = [s for s in states if s in targets]
    for s in states:
        rounds[s] = math.inf
    candidate = set(states)
    r = 0
    while True:
        r += 1
        usable = {}
        for s in candidate:
            allowed = (pin[s],) if s in pin else range(len(moves[s]))
            stay = {
                mi for mi in allowed
                if all(rounds[t] >= r for t, p in moves[s][mi].branches if p > 0)
            }
            if s in exists or len(stay) == len(allowed):
                usable[s] = stay
        live = dict.fromkeys(seeds + [t for t in exits if rounds[t] > r], 0)
        dropped = candidate.difference(_layered_attractor(preds, live, exists, usable)[0])
        if not dropped and r > last:
            return
        for s in dropped:
            rounds[s] = r
        candidate -= dropped


def _label_of(targets):
    return targets if isinstance(targets, str) else frozenset(targets)


def _deadlock_warnings(game: Tsg, target_set: frozenset[int], treatment: str) -> list[str]:
    stuck = [s for s in range(len(game.states)) if not game.moves[s] and s not in target_set]
    if not stuck:
        return []
    return [f"{len(stuck)} non-target deadlock state(s) treated as {treatment}"]


def _almost_sure(
    game: Tsg, targets: frozenset[int], reacher, pin: dict[int, int] | None = None
) -> tuple[frozenset[int], dict[int, int]]:
    """States from which `reacher` forces `targets` with probability one, and
    the index of a spoiling move for each state of the other side outside them."""
    rounds = _drop_rounds(game, targets, reacher, pin)
    spoilers: dict[int, int] = {}
    for s, e in enumerate(rounds):
        moves = game.moves[s]
        if e == math.inf or game.owner[s] == reacher or not moves:
            continue
        leave = [i for i, m in enumerate(moves) if any(p > 0 and rounds[t] < e for t, p in m.branches)]
        miss = [i for i, m in enumerate(moves) if not any(p > 0 and rounds[t] > e for t, p in m.branches)]
        spoilers[s] = _smallest(moves, leave or miss)
    return frozenset(s for s, e in enumerate(rounds) if e == math.inf), spoilers


def _drop_rounds(
    game: Tsg, targets: frozenset[int], reacher, pin: dict[int, int] | None = None
) -> list:
    """Per state, the round in which the almost-sure loop drops it (``inf``
    if never), SCC by SCC, successors first."""
    pin = pin or {}
    moves, owner = game.moves, game.owner
    inf = math.inf
    rounds: list = [0] * len(moves)
    for states, cyclic in game.components:
        if cyclic:
            _cyclic_rounds(game, states, targets, reacher, pin, rounds)
            continue
        s = states[0]
        if s in targets:
            rounds[s] = inf
            continue
        reaching = owner[s] == reacher
        works = 0 if reaching or not moves[s] else inf
        for m in (moves[s][pin[s]],) if s in pin else moves[s]:
            after = [rounds[t] for t, p in m.branches if p > 0]
            if after:
                lo, hi = min(after), max(after)
                work = lo if lo < hi else hi - 1
            else:
                work = 0
            if reaching:
                if work > works:
                    works = work
                    if works == inf:
                        break
            elif work < works:
                works = work
        rounds[s] = works + 1
    return rounds


def qualitative_reach(
    game: Tsg, targets: Union[str, Iterable[int]], direction: str = "maxmin"
) -> tuple[frozenset[int], frozenset[int]]:
    """Pure graph analysis: (probability-0 states, probability-1 states)."""
    _check_two_players(game)
    target_set = _target_set(game, targets)
    maximizer = game.players[_reach_maximizer(direction)]
    rounds = _drop_rounds(game, target_set, maximizer)
    prob0 = frozenset(s for s, e in enumerate(rounds) if e == 1)
    prob1 = frozenset(s for s, e in enumerate(rounds) if e == math.inf)
    return prob0, prob1


def prob_reach(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    _check_two_players(game)
    _check_tol(tol)
    target_set = _target_set(game, targets)
    objective = Objective("prob-reach", direction, _label_of(targets))
    prob0, prob1 = qualitative_reach(game, target_set, direction)
    values = [1.0 if s in prob1 else 0.0 for s in range(len(game.states))]
    active = [s for s in range(len(game.states)) if s not in prob0 and s not in prob1]
    warnings = _deadlock_warnings(game, target_set, "probability 0")
    return _solve_active(game, objective, values, active, tol, max_iters, warnings, prob0, prob1)


def expected_price(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    _check_two_players(game)
    _check_tol(tol)
    target_set = _target_set(game, targets)
    objective = Objective("exp-price", direction, _label_of(targets))
    payer = game.players[1 - _reach_maximizer(direction)]
    prob1, spoilers = _almost_sure(game, target_set, payer)
    n = len(game.states)
    values = [0.0 if s in prob1 else math.inf for s in range(n)]
    active = [s for s in range(n) if s in prob1 and s not in target_set]
    warnings = _deadlock_warnings(game, target_set, "infinite price")
    infinite = n - len(prob1)
    if infinite:
        warnings.append(
            f"{infinite} state(s) cannot be forced to reach the target almost surely; "
            f"their expected price is infinite"
        )
    return _solve_active(game, objective, values, active, tol, max_iters, warnings, None, prob1, spoilers)


def _solve_active(
    game, objective, values, active, tol, max_iters, warnings, prob0, prob1, spoilers=None
) -> SolveResult:
    """Iterate the active states of `values` in place, then synthesize."""
    prices = objective.kind == "exp-price"
    iterations, residual, converged = _iterate(
        game.moves, values, active, _opt_for(game, objective.direction), tol, max_iters, prices
    )
    result = SolveResult(
        objective=objective,
        values=values,
        initial_value=values[game.initial],
        iterations=iterations,
        residual=residual,
        converged=converged,
        prob0=prob0,
        prob1=prob1,
        warnings=warnings,
    )
    if converged:
        p1, p2 = synthesize(game, objective, result, tol, spoilers)
        result.strategy = {**p1, **p2}
    else:
        result.warnings.append("value iteration did not converge; no strategy synthesized")
    return result


def _iterate(
    moves: Sequence[Sequence[Move]],
    values: list[float],
    active: list[int],
    opt: list,
    tol: float,
    max_iters: int,
    prices: bool,
) -> tuple[int, float, bool]:
    """Solve the active states SCC by SCC, successors first, in place, with
    a Tarjan search of their own."""
    if max_iters < 1:
        return 0, math.inf, False

    def sweep(states) -> float:
        residual = 0.0
        for s in states:
            old = values[s]
            # branches added from 0 in order, as `sum` did before Python 3.12 compensated
            if prices:
                new = opt[s](
                    m.price + reduce(add, (p * values[t] for t, p in m.branches), 0)
                    for m in moves[s]
                )
            else:
                new = opt[s](
                    reduce(add, (p * values[t] for t, p in m.branches), 0) for m in moves[s]
                )
            if new < old - _MONOTONE_SLACK:
                raise ModelError(f"non-monotone sweep at state {s}: {old} -> {new}")
            if new != old:
                diff = new - old
                if diff > residual:
                    residual = diff
                values[s] = new
        return residual

    most = 1
    worst = 0.0
    for component, cyclic in strongly_connected(move_successors(moves), active):
        if not cyclic:
            sweep(component)
            continue
        sweeps = 0
        residual = math.inf
        while sweeps < max_iters:
            sweeps += 1
            residual = sweep(component)
            if residual < tol:
                break
        most = max(most, sweeps)
        worst = max(worst, residual)
        if residual >= tol:
            return most, worst, False
    return most, worst, True


def _backup(move: Move, values: list[float], prices: bool) -> float:
    total = move.price if prices else 0.0
    for t, p in move.branches:
        total += p * values[t]
    return total


def synthesize(
    game: Tsg,
    objective: Objective,
    values: Union[SolveResult, Sequence[float]],
    tol: float = DEFAULT_TOL,
    spoilers: dict[int, int] | None = None,
) -> tuple[dict[int, str], dict[int, str]]:
    """Optimal memoryless deterministic profile pair extracted from values,
    with the unpinned pass's `spoilers` if the caller has them."""
    _check_two_players(game)
    _check_tol(tol)
    if isinstance(values, SolveResult):
        if not values.converged:
            raise ModelError("refusing to synthesize from non-converged values")
        vector = values.values
    else:
        vector = list(values)
    if objective.kind not in ("prob-reach", "exp-price"):
        raise ModelError(f"no memoryless synthesis for kind {objective.kind!r}")
    prices = objective.kind == "exp-price"
    target_set = _target_set(game, objective.target)
    opt = _opt_for(game, objective.direction)

    maximizer = _reach_maximizer(objective.direction)
    reacher = game.players[1 - maximizer if prices else maximizer]
    reaching = game.player_states(reacher)

    choice: dict[int, int] = {}
    tied: dict[int, set[int]] = {}
    for s, moves in enumerate(game.moves):
        if not moves:
            continue
        backups = [_backup(m, vector, prices) for m in moves]
        best = opt[s](backups)
        if math.isinf(best):
            optimal = [i for i, b in enumerate(backups) if b == best]
        else:
            slack = 2 * tol * max(1.0, abs(best))
            optimal = [i for i, b in enumerate(backups) if abs(b - best) <= slack]
        choice[s] = _smallest(moves, optimal)
        tied[s] = set(optimal) if s in reaching and s not in target_set else {choice[s]}

    for s, hits in _attractor(game, target_set, reaching, tied).items():
        if hits:
            choice[s] = _smallest(game.moves[s], hits)
    if prices and any(math.isinf(v) for v in vector):
        if spoilers is None:
            _, spoilers = _almost_sure(game, target_set, reacher)
        choice.update((s, mi) for s, mi in spoilers.items() if math.isinf(vector[s]))

    if prices:
        pin = {s: mi for s, mi in choice.items() if s in reaching}
        forced, _ = _almost_sure(game, target_set, reacher, pin)
        stalled = [s for s, v in enumerate(vector) if not math.isinf(v) and s not in forced]
        if stalled:
            raise ModelError(
                f"expected price is ill-posed here: the minimizing side can stall at "
                f"zero price in {len(stalled)} state(s) (e.g. state {min(stalled)}); "
                f"give the stalling moves positive prices"
            )
    _certify(game, objective, vector, choice, tol)

    profile1: dict[int, str] = {}
    profile2: dict[int, str] = {}
    for s, mi in choice.items():
        side = profile1 if game.owner[s] == game.players[0] else profile2
        side[s] = game.moves[s][mi].label
    return profile1, profile2


def _certify(
    game: Tsg,
    objective: Objective,
    vector: Sequence[float],
    choice: dict[int, int],
    tol: float,
):
    moves = game.moves
    chain = [()] * len(moves)
    reached = {game.initial}
    stack = [game.initial]
    while stack:
        s = stack.pop()
        if s in choice:
            chain[s] = (moves[s][choice[s]],)
            for t, p in chain[s][0].branches:
                if p > 0 and t not in reached:
                    reached.add(t)
                    stack.append(t)
    target_set = _target_set(game, objective.target)
    chosen = {s: {choice[s]} for s in reached if s in choice and s not in target_set}
    prob0 = reached.difference(_attractor(game, target_set, frozenset(), chosen))
    doomed = _attractor(game, prob0, frozenset(), chosen)
    prices = objective.kind == "exp-price"
    if prices:
        check = [math.inf if s in doomed else 0.0 for s in range(len(moves))]
        active = [s for s in reached if s not in doomed and s not in target_set]
    else:
        check = [0.0 if s in doomed else 1.0 for s in range(len(moves))]
        active = [s for s in doomed if s not in prob0]
    _iterate(chain, check, active, [max] * len(moves), tol, DEFAULT_MAX_ITERS, prices)
    worst = 0.0
    for s in reached:
        a, b = vector[s], check[s]
        if math.isinf(a) and math.isinf(b):
            continue
        worst = max(worst, abs(a - b))
    if worst > 10 * tol:
        raise ModelError(
            f"synthesized profile fails its optimality certificate: induced chain "
            f"deviates by {worst:.3e} (> {10 * tol:.1e})"
        )


def solve(game: Tsg, objective: Objective, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> SolveResult:
    """Dispatch on the objective kind."""
    _check_tol(tol)
    if objective.kind == "prob-reach":
        return prob_reach(game, objective.target, objective.direction, tol, max_iters)
    return expected_price(game, objective.target, objective.direction, tol, max_iters)
