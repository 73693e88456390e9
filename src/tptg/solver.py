"""Optimal values and strategies for two-player explicit games.

Values are computed by value iteration over binary64, with graph-based
qualitative precomputation pinning the certainly-0 and certainly-1 states
for reachability and the infinite states for expected price. The remaining
states are split into strongly connected components and solved successors
first: a state on no cycle gets one backup, a cyclic component Gauss-Seidel
sweeps over its own states until one sweep changes less than the tolerance.
Every graph fixpoint is one layered two-player attractor over the
game's cached predecessor index: positive reach is one attractor, almost-sure
reach a shrinking sequence of them, and synthesis settles the reaching side
on an attractor over its optimal moves. Synthesis extracts memoryless
deterministic profiles and certifies them by re-evaluating the induced
chain. An expected-price solve is refused when the payer's profile does not
force the target almost surely from every finite-valued state, because the
values iterated from below then credit a zero-price cycle as free.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import ModelError
from .game import Move, Tsg

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10**6

#: slack for the monotonicity check on value-iteration sweeps
_MONOTONE_SLACK = 1e-9

KINDS = ("prob-reach", "exp-price", "bounded-exp-price")
DIRECTIONS = ("maxmin", "minmax")


@dataclass(frozen=True)
class Objective:
    """What to optimize: kind, direction, and target label.

    Direction fixes the goals of the two sides: under ``maxmin`` player 1
    maximizes the quantity and player 2 minimizes it; ``minmax`` swaps the
    roles. `horizon` applies to the bounded kind only; `price` records which
    price structure the game was built with (informational).
    """

    kind: str
    direction: str
    target: Union[str, frozenset]
    horizon: int | None = None
    price: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown objective kind {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ModelError(f"unknown direction {self.direction!r}")
        if self.kind == "bounded-exp-price":
            if self.horizon is None or self.horizon < 0:
                raise ModelError("bounded objective needs a horizon n >= 0")

    def describe(self) -> str:
        text = f"{self.kind} {self.direction} -> {self.target}"
        if self.horizon is not None:
            text += f" within {self.horizon} steps"
        if self.price is not None:
            text += f" [price {self.price}]"
        return text


@dataclass
class SolveResult:
    objective: Objective
    values: list[float]
    initial_value: float
    iterations: int
    residual: float
    converged: bool
    strategy: dict[int, str] | None = None
    prob0: frozenset[int] | None = None
    prob1: frozenset[int] | None = None
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        target = self.objective.target
        return {
            "objective": {
                "kind": self.objective.kind,
                "direction": self.objective.direction,
                "target": target if isinstance(target, str) else sorted(target),
                "horizon": self.objective.horizon,
                "price": self.objective.price,
            },
            "value": self.initial_value,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "strategy": (
                None
                if self.strategy is None
                else [
                    {"state": s, "action": a}
                    for s, a in sorted(self.strategy.items())
                ]
            ),
        }


def _target_set(game: Tsg, targets: Union[str, Iterable[int]]) -> frozenset[int]:
    if isinstance(targets, str):
        return game.label_states(targets)
    return frozenset(targets)


def _check_two_players(game: Tsg):
    if len(game.players) != 2:
        raise ModelError(
            f"solver needs a two-player game (got players {list(game.players)}); "
            f"apply a coalition first"
        )


def _reach_maximizer(direction: str) -> int:
    """Index (0/1) into game.players of the side maximizing reach probability."""
    if direction not in DIRECTIONS:
        raise ModelError(f"unknown direction {direction!r}")
    return 0 if direction == "maxmin" else 1


def _attractor(
    game: Tsg,
    targets: Iterable[int],
    exists: frozenset[int],
    usable: dict[int, set[int]] | None = None,
) -> dict[int, set[int]]:
    """Layered two-player attractor of `targets`, with the moves that hit.

    A state in `exists` joins once one of its usable moves has a positive
    branch into an earlier layer; any other state joins once it has usable
    moves and all of them have such a branch. `usable[s]` holds the usable
    move indices of s (a state missing from it has none); by default every
    move is usable. Returns, for each member, the indices of the usable moves
    that hit when it joined (none for targets).
    """
    preds = game.predecessors
    member: dict[int, set[int]] = {t: set() for t in targets}
    hits: dict[int, set[int]] = {}
    frontier = list(member)
    while frontier:
        touched = set()
        for t in frontier:
            for s, mi in preds[t]:
                if s in member or (usable is not None and mi not in usable.get(s, ())):
                    continue
                hits.setdefault(s, set()).add(mi)
                touched.add(s)
        frontier = []
        for s in touched:
            count = len(game.moves[s]) if usable is None else len(usable[s])
            if s in exists or len(hits[s]) == count:
                member[s] = hits[s]
                frontier.append(s)
    return member


def _almost_sure(
    game: Tsg, targets: frozenset[int], reacher
) -> tuple[frozenset[int], dict[int, Move]]:
    """States from which `reacher` forces `targets` with probability one, and
    a spoiling move for each state of the other side outside them.

    Greatest fixpoint: shrink the candidate set to the attractor of the
    targets over the moves that stay in it until no state drops. A dropped
    state of the avoiding side spoils with its (delay, action)-smallest move
    that leaves the candidate set, or else with the smallest that misses the
    attractor; playing these keeps the target unreached with positive
    probability from every dropped state.
    """
    exists = game.player_states(reacher)
    candidate = set(range(len(game.states)))
    spoilers: dict[int, Move] = {}
    while True:
        usable = {}
        for s in candidate:
            moves = game.moves[s]
            stay = {
                mi for mi, m in enumerate(moves)
                if all(t in candidate for t, p in m.branches if p > 0)
            }
            if s in exists or len(stay) == len(moves):
                usable[s] = stay
        attracted = _attractor(game, targets, exists, usable)
        dropped = [s for s in candidate if s not in attracted]
        if not dropped:
            return frozenset(candidate), spoilers
        for s in dropped:
            moves = game.moves[s]
            if s in exists or not moves:
                continue
            leave = [m for m in moves if any(p > 0 and t not in candidate for t, p in m.branches)]
            miss = [m for m in moves if not any(p > 0 and t in attracted for t, p in m.branches)]
            spoilers[s] = min(leave or miss, key=Move.sort_key)
        candidate = set(attracted)


def qualitative_reach(
    game: Tsg, targets: Union[str, Iterable[int]], direction: str = "maxmin"
) -> tuple[frozenset[int], frozenset[int]]:
    """Pure graph analysis: (probability-0 states, probability-1 states)."""
    _check_two_players(game)
    target_set = _target_set(game, targets)
    maximizer = game.players[_reach_maximizer(direction)]
    positive = _attractor(game, target_set, game.player_states(maximizer))
    prob0 = frozenset(s for s in range(len(game.states)) if s not in positive)
    prob1, _ = _almost_sure(game, target_set, maximizer)
    return prob0, prob1


def _opt_for(game: Tsg, direction: str) -> list:
    """Per-state choice of max or min for the one-step backup."""
    maximizer = game.players[_reach_maximizer(direction)]
    return [max if p == maximizer else min for p in game.owner]


def prob_reach(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Optimal probability of reaching the target under the given direction."""
    _check_two_players(game)
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
    """Optimal expected price accumulated before reaching the target.

    States where the price-minimizing side cannot force the target almost
    surely get value infinity: a profile that leaves the target unreached
    with positive probability counts as infinitely expensive.

    Values are iterated from below, which credits a zero-price cycle as free
    although never reaching the target is infinitely expensive. Synthesis
    therefore refuses the game when the minimizing side's extracted profile
    does not force the target almost surely from every finite-valued state.
    """
    _check_two_players(game)
    target_set = _target_set(game, targets)
    objective = Objective("exp-price", direction, _label_of(targets))
    # the side made to pay wants the target reached almost surely
    reach_direction = "minmax" if direction == "maxmin" else "maxmin"
    _, prob1 = qualitative_reach(game, target_set, reach_direction)
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
    return _solve_active(game, objective, values, active, tol, max_iters, warnings, None, prob1)


def _solve_active(game, objective, values, active, tol, max_iters, warnings, prob0, prob1) -> SolveResult:
    """Iterate the active states of `values` in place, then synthesize."""
    prices = objective.kind == "exp-price"
    iterations, residual, converged = _iterate(
        game, values, active, _opt_for(game, objective.direction), tol, max_iters, prices
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
        p1, p2 = synthesize(game, objective, result, tol)
        result.strategy = {**p1, **p2}
    else:
        result.warnings.append("value iteration did not converge; no strategy synthesized")
    return result


def bounded_expected_price(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    n: int,
    direction: str = "maxmin",
) -> list[float]:
    """Optimal expected price over exactly `n` backup steps (no tolerance)."""
    _check_two_players(game)
    if n < 0:
        raise ModelError("horizon must be non-negative")
    target_set = _target_set(game, targets)
    opt = _opt_for(game, direction)
    values = [0.0] * len(game.states)
    for _ in range(n):
        step = list(values)
        for s, moves in enumerate(game.moves):
            if s in target_set or not moves:
                continue
            step[s] = opt[s](
                m.price + sum(p * values[t] for t, p in m.branches) for m in moves
            )
        values = step
    return values


def _label_of(targets):
    # objectives carry either the label name or the explicit state set
    return targets if isinstance(targets, str) else frozenset(targets)


def _deadlock_warnings(game: Tsg, target_set: frozenset[int], treatment: str) -> list[str]:
    stuck = [s for s in range(len(game.states)) if not game.moves[s] and s not in target_set]
    if not stuck:
        return []
    return [f"{len(stuck)} non-target deadlock state(s) treated as {treatment}"]


def _iterate(
    game: Tsg,
    values: list[float],
    active: list[int],
    opt: list,
    tol: float,
    max_iters: int,
    prices: bool,
) -> tuple[int, float, bool]:
    """Solve the active states SCC by SCC, successors first, in place.

    A trivial SCC (one state, no self-loop) gets one backup; a cyclic one
    gets Gauss-Seidel sweeps over its states in ascending order until one
    sweep changes less than `tol`, at most `max_iters` sweeps. Returns (the
    most sweeps any SCC needed, the largest final-sweep residual of a cyclic
    SCC, converged); the first SCC that hits the cap stops the solve.
    """
    if max_iters < 1:
        return 0, math.inf, False
    moves = game.moves

    def sweep(states) -> float:
        residual = 0.0
        for s in states:
            old = values[s]
            if prices:
                new = opt[s](
                    m.price + sum(p * values[t] for t, p in m.branches)
                    for m in moves[s]
                )
            else:
                new = opt[s](
                    sum(p * values[t] for t, p in m.branches) for m in moves[s]
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
    for component, cyclic in _components(moves, active):
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


def _components(moves: Sequence[Sequence[Move]], active: Sequence[int]):
    """Strongly connected components of the active states, successors first.

    Edges are positive-probability branches between active states. Iterative
    Tarjan: roots in ascending state order, successors in move and branch
    order. Yields (states in ascending order, whether the SCC has a cycle).
    """
    number: dict[int, int] = dict.fromkeys(active, -1)
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()

    def visit(s):
        number[s] = low[s] = len(low)
        stack.append(s)
        on_stack.add(s)
        successors = [t for m in moves[s] for t, p in m.branches if p > 0 and t in number]
        work.append((s, successors, iter(successors)))

    for root in sorted(active):
        if number[root] >= 0:
            continue
        work = []
        visit(root)
        while work:
            s, successors, pending = work[-1]
            for t in pending:
                if number[t] < 0:
                    visit(t)
                    break
                if t in on_stack and number[t] < low[s]:
                    low[s] = number[t]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[s] < low[parent]:
                        low[parent] = low[s]
                if low[s] == number[s]:
                    component = [stack.pop()]
                    while component[-1] != s:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1:
                        yield sorted(component), True
                    else:
                        yield component, s in successors


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
) -> tuple[dict[int, str], dict[int, str]]:
    """Optimal memoryless deterministic profile pair extracted from values.

    Each state picks a one-step-optimal move; ties break towards the
    (delay, action)-smallest move, except that the side trying to reach the
    target prefers, among the optimal moves, one that makes progress towards
    it (otherwise a value-preserving loop could stall forever). At states of
    infinite expected price the avoiding side plays a spoiling move, and the
    payer's profile must force the target almost surely from every
    finite-valued state, else the solve is refused as a zero-price stall.
    The induced chain is re-solved and must reproduce the values within
    ``10 * tol``.
    """
    _check_two_players(game)
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

    # the reaching side: maximizer of probability, or payer of price
    maximizer = _reach_maximizer(objective.direction)
    reacher = game.players[1 - maximizer if prices else maximizer]
    reaching = game.player_states(reacher)

    choice: dict[int, Move] = {}
    tied: dict[int, set[int]] = {}
    for s, moves in enumerate(game.moves):
        if not moves:
            continue
        backups = [_backup(m, vector, prices) for m in moves]
        best = opt[s](backups)
        # converged values are only residual-accurate, so moves within that
        # slack of the optimum count as tied
        if math.isinf(best):
            optimal = [i for i, b in enumerate(backups) if b == best]
        else:
            slack = 2 * tol * max(1.0, abs(best))
            optimal = [i for i, b in enumerate(backups) if abs(b - best) <= slack]
        first = _smallest(moves, optimal)
        choice[s] = moves[first]
        tied[s] = set(optimal) if s in reaching and s not in target_set else {first}

    # the reaching side settles, layer by layer from the target, on its
    # smallest tied move that steps into an earlier layer
    for s, hits in _attractor(game, target_set, reaching, tied).items():
        if hits:
            choice[s] = game.moves[s][_smallest(game.moves[s], hits)]
    if prices and any(math.isinf(v) for v in vector):
        # at infinite-value states the avoider must witness the infinity
        _, spoilers = _almost_sure(game, target_set, reacher)
        choice.update((s, m) for s, m in spoilers.items() if math.isinf(vector[s]))

    profile1: dict[int, str] = {}
    profile2: dict[int, str] = {}
    for s, move in choice.items():
        side = profile1 if game.owner[s] == game.players[0] else profile2
        side[s] = move.label

    if prices:
        # iteration from below credits zero-price cycles as free; its values
        # are the game's when the payer's profile forces the target almost
        # surely from every finite-valued state
        payer = profile1 if reacher == game.players[0] else profile2
        forced, _ = _almost_sure(restrict_to_profile(game, payer), target_set, reacher)
        stalled = [s for s, v in enumerate(vector) if not math.isinf(v) and s not in forced]
        if stalled:
            raise ModelError(
                f"expected price is ill-posed here: the minimizing side can stall at "
                f"zero price in {len(stalled)} state(s) (e.g. state {min(stalled)}); "
                f"give the stalling moves positive prices"
            )
    _certify(game, objective, vector, {**profile1, **profile2}, tol)
    return profile1, profile2


def _smallest(moves: Sequence[Move], indices: Iterable[int]) -> int:
    """Index of the (delay, action)-smallest of the indexed moves, the
    earlier one on equal keys."""
    return min(indices, key=lambda i: (moves[i].sort_key(), i))


def restrict_to_profile(game: Tsg, profile: dict[int, str]) -> Tsg:
    """Game where states in `profile` keep only their selected move."""
    new_moves = []
    for s, moves in enumerate(game.moves):
        if s in profile:
            new_moves.append(tuple(m for m in moves if m.label == profile[s]))
        else:
            new_moves.append(moves)
    return Tsg(
        states=game.states,
        initial=game.initial,
        players=game.players,
        owner=game.owner,
        moves=tuple(new_moves),
        labels=game.labels,
    )


def _chain_reachable(game: Tsg, profile: dict[int, str]) -> list[int]:
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


def _certify(
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
    for s in _chain_reachable(game, profile):
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
    _iterate(game, values, active, _opt_for(game, direction), tol, max_iters, prices=False)
    return values


def expected_price_values_only(game, targets, direction, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Expected prices without synthesis (used for certificates)."""
    target_set = _target_set(game, targets)
    reach_direction = "minmax" if direction == "maxmin" else "maxmin"
    _, prob1 = qualitative_reach(game, target_set, reach_direction)
    values = [0.0 if s in prob1 else math.inf for s in range(len(game.states))]
    active = [s for s in range(len(game.states)) if s in prob1 and s not in target_set]
    _iterate(game, values, active, _opt_for(game, direction), tol, max_iters, prices=True)
    return values


def solve(game: Tsg, objective: Objective, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> SolveResult:
    """Dispatch on the objective kind."""
    if objective.kind == "prob-reach":
        return prob_reach(game, objective.target, objective.direction, tol, max_iters)
    if objective.kind == "exp-price":
        return expected_price(game, objective.target, objective.direction, tol, max_iters)
    values = bounded_expected_price(game, objective.target, objective.horizon, objective.direction)
    return SolveResult(
        objective=objective,
        values=values,
        initial_value=values[game.initial],
        iterations=objective.horizon,
        residual=0.0,
        converged=True,
    )


def check_determinacy(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    kind: str = "prob-reach",
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, float]:
    """Certified bracket around the game value at the initial state.

    Solves the game, extracts an optimal profile pair, then re-solves twice
    with one side pinned to its strategy while the other optimizes freely.
    The pinned-coalition value is what that side can guarantee, so the pair
    brackets both optimization orders; a gap below ``2 * tol`` certifies
    determinacy and strategy optimality at this accuracy.
    """
    _check_two_players(game)
    target_set = _target_set(game, targets)
    if kind == "prob-reach":
        runner = prob_reach
    elif kind == "exp-price":
        runner = expected_price
    else:
        raise ModelError(f"determinacy check supports prob-reach and exp-price, not {kind!r}")
    result = runner(game, target_set, direction, tol, max_iters)
    if not result.converged:
        raise ModelError("determinacy check needs a converged solve")
    profile1 = {
        s: a for s, a in result.strategy.items() if game.owner[s] == game.players[0]
    }
    profile2 = {
        s: a for s, a in result.strategy.items() if game.owner[s] == game.players[1]
    }
    guaranteed1 = runner(
        restrict_to_profile(game, profile1), target_set, direction, tol, max_iters
    ).initial_value
    guaranteed2 = runner(
        restrict_to_profile(game, profile2), target_set, direction, tol, max_iters
    ).initial_value
    # With player 1 pinned, the free opponent drives the value to player 1's
    # guarantee (the pessimistic optimization order); pinning player 2 gives
    # the optimistic one. Return (pessimistic, optimistic) for player 1.
    if direction == "maxmin":
        return guaranteed1, guaranteed2
    return guaranteed2, guaranteed1
