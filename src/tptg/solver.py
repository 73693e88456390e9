"""Optimal values and strategies for two-player explicit games.

Values are computed by value iteration over binary64, with graph-based
qualitative precomputation pinning the certainly-0 and certainly-1 states
for reachability and the infinite states for expected price. The remaining
states are split into strongly connected components (SCCs) and solved
successors first: a state on no cycle gets one backup, a cyclic component Gauss-Seidel
sweeps over its own states until one sweep changes less than the tolerance.
Qualitative analysis walks the SCCs of the game's cached decomposition
successors first, giving each state the round in which the whole-game
almost-sure loop would drop it; the probability-0 and -1 sets and the
spoiling moves are read off those rounds. Synthesis settles the reaching side
on a layered attractor over its optimal moves, picks one move index
per state and checks the pair on the game itself, never on a copy. An
expected-price solve is refused when the payer's pinned moves do not force
the target almost surely from every finite-valued state, because the values
iterated from below then credit a zero-price cycle as free. The certificate
evaluates the induced Markov chain: two backward searches over the chosen
moves give its probability-0 and -1 states, the SCC kernel the rest, and it
must match the values within ``10 * tol`` on the states it reaches.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import ModelError
from .game import Move, Tsg, move_successors, strongly_connected

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
    #: spoiling move index per state the payer cannot force the target from
    #: (expected price only; not serialized)
    spoilers: dict[int, int] | None = None

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


def _check_tol(tol: float):
    if not 0 <= tol < math.inf:
        raise ModelError(f"tolerance must be a finite number >= 0, not {tol!r}")


def _reach_maximizer(direction: str) -> int:
    """Index (0/1) into game.players of the side maximizing reach probability."""
    if direction not in DIRECTIONS:
        raise ModelError(f"unknown direction {direction!r}")
    return 0 if direction == "maxmin" else 1


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
    preds = game.predecessors
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


def _almost_sure(
    game: Tsg, targets: frozenset[int], reacher, pin: dict[int, int] | None = None
) -> tuple[frozenset[int], dict[int, int]]:
    """States from which `reacher` forces `targets` with probability one, and
    the index of a spoiling move for each state of the other side outside them.

    The almost-sure states are those `_drop_rounds` never drops. A state of
    the avoiding side dropped in round e spoils with its (delay,
    action)-smallest move that leaves that round's candidates (a positive
    branch to a state dropped before e), or else with the smallest that
    misses its attractor (none to a state dropped after e); playing these
    keeps the target unreached with positive probability from every dropped
    state. `pin` maps states of `reacher` to the index of the only move each
    may use.
    """
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
    if never): round r shrinks the candidates to the attractor of `targets`
    over the moves that stay among them, until a round drops nothing.

    A state is a candidate in round r while its round is at least r and
    attracted while it is above r, so the SCCs of `game.components` are
    decided successors first. A move of a state on no cycle keeps working
    (stays and hits) for ``min(min e, max e - 1)`` rounds over the rounds e
    of its positive branches; a state of `reacher` drops one round after its
    best allowed move stops working, any other state after its first. A
    cyclic SCC runs the loop on its own states. Round 1 drops the states
    that cannot reach `targets` with positive probability.
    """
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
        # rounds that the best (for reacher) or worst allowed move keeps working
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


def _cyclic_rounds(game, states, targets, reacher, pin, rounds):
    """Set the rounds of one cyclic SCC whose exits have theirs. Once the
    last exit has dropped, the first round that drops nothing is final."""
    moves = game.moves
    inside = set(states)
    exits = {t for s in states for m in moves[s] for t, p in m.branches if p > 0 and t not in inside}
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
        attracted = _attractor(game, seeds + [t for t in exits if rounds[t] > r], exists, usable)
        dropped = candidate.difference(attracted)
        if not dropped and r > last:
            return
        for s in dropped:
            rounds[s] = r
        candidate -= dropped


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
    _check_tol(tol)
    target_set = _target_set(game, targets)
    objective = Objective("exp-price", direction, _label_of(targets))
    # the side made to pay wants the target reached almost surely
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
        spoilers=spoilers,
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
    moves: Sequence[Sequence[Move]],
    values: list[float],
    active: list[int],
    opt: list,
    tol: float,
    max_iters: int,
    prices: bool,
) -> tuple[int, float, bool]:
    """Solve the active states SCC by SCC, successors first, in place.

    `moves[s]` holds the moves of state s that the backup ranges over.
    A trivial SCC (one state, no self-loop) gets one backup; a cyclic one
    gets Gauss-Seidel sweeps over its states in ascending order until one
    sweep changes less than `tol`, at most `max_iters` sweeps. Returns (the
    most sweeps any SCC needed, the largest final-sweep residual of a cyclic
    SCC, converged); the first SCC that hits the cap stops the solve.
    """
    if max_iters < 1:
        return 0, math.inf, False

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
) -> tuple[dict[int, str], dict[int, str]]:
    """Optimal memoryless deterministic profile pair extracted from values.

    Each state picks a one-step-optimal move; ties break towards the
    (delay, action)-smallest move, except that the side trying to reach the
    target prefers, among the optimal moves, one that makes progress towards
    it (otherwise a value-preserving loop could stall forever). At states of
    infinite expected price the avoiding side plays a spoiling move, taken
    from `values` when it is a `SolveResult` that carries them, and the
    payer's profile must force the target almost surely from every
    finite-valued state, else the solve is refused as a zero-price stall.
    The Markov chain the chosen move indices induce is then evaluated (two
    backward searches, then the SCC kernel) and must reproduce the values
    within ``10 * tol`` on every state it reaches.
    """
    _check_two_players(game)
    _check_tol(tol)
    if isinstance(values, SolveResult):
        if not values.converged:
            raise ModelError("refusing to synthesize from non-converged values")
        vector = values.values
        spoilers = values.spoilers
    else:
        vector = list(values)
        spoilers = None
    if objective.kind not in ("prob-reach", "exp-price"):
        raise ModelError(f"no memoryless synthesis for kind {objective.kind!r}")
    prices = objective.kind == "exp-price"
    target_set = _target_set(game, objective.target)
    opt = _opt_for(game, objective.direction)

    # the reaching side: maximizer of probability, or payer of price
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
        # converged values are only residual-accurate, so moves within that
        # slack of the optimum count as tied
        if math.isinf(best):
            optimal = [i for i, b in enumerate(backups) if b == best]
        else:
            slack = 2 * tol * max(1.0, abs(best))
            optimal = [i for i, b in enumerate(backups) if abs(b - best) <= slack]
        choice[s] = _smallest(moves, optimal)
        tied[s] = set(optimal) if s in reaching and s not in target_set else {choice[s]}

    # the reaching side settles, layer by layer from the target, on its
    # smallest tied move that steps into an earlier layer
    for s, hits in _attractor(game, target_set, reaching, tied).items():
        if hits:
            choice[s] = _smallest(game.moves[s], hits)
    if prices and any(math.isinf(v) for v in vector):
        # at infinite-value states the avoider must witness the infinity
        if spoilers is None:
            _, spoilers = _almost_sure(game, target_set, reacher)
        choice.update((s, mi) for s, mi in spoilers.items() if math.isinf(vector[s]))

    if prices:
        # iteration from below credits zero-price cycles as free; its values
        # are the game's when the payer's profile forces the target almost
        # surely from every finite-valued state
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


def _certify(
    game: Tsg,
    objective: Objective,
    vector: Sequence[float],
    choice: dict[int, int],
    tol: float,
):
    # Optimality holds along the play the profile pair actually induces;
    # off-path states with infinite value keep arbitrary recorded choices.
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
    # A Markov chain reaches the target with probability 0 from the states
    # that cannot reach it, and with probability 1 from the states that
    # cannot reach those without passing the target.
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
    # each state has one move, so the backup's max is that move's
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
