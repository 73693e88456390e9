"""Optimal values and strategies for two-player explicit games.

A solve is a values pass, then a choice step. The values pass is one
successors-first pass over the strongly connected components (SCCs) of the
game's cached decomposition (`Tsg.components`). A state on no cycle gets one
visit, from its successors' final data, in which one walk of each move's
positive branches gives its backups in binary64 and its work towards the
round in which the whole-game almost-sure loop would drop the state; the
round gives the probability-0 and -1 sets, the backups its value. A cyclic
SCC runs the almost-sure loop on its states and Gauss-Seidel sweeps the SCCs
of its undecided states until one sweep changes less than the tolerance.
The pass keeps each state's backups over the final values. The choice step
picks a one-step-optimal move per state of a successors-first part of the
SCCs closed under optimal moves, ties broken towards the (delay,
action)-smallest, but the reaching side's towards the earliest layer of the
attractor of the target, which a cyclic SCC layers from its exits' layers;
the rounds give the avoiding side's spoilers. A solve chooses on the closure
of the initial state, which holds the play its certificate checks (on every
SCC for the stall check), and on every SCC at the first read of its
`strategy`. Strategies are pinned by views of the game that only drop
moves, and each view is evaluated by the values pass. An
expected-price solve is refused when the payer's chosen moves do not force
the target almost surely from every finite-valued state (values iterated
from below credit a zero-price cycle as free): the qualitative pass on the
view keeping only the payer's chosen moves must put every such state in its
probability-1 set. A solve skips that check on a game with no cyclic SCC,
where its own values cannot stall; `synthesize`, handed any values, always
runs it. The certificate evaluates the induced Markov chain, a view with
one chosen move per reached state and none elsewhere, whose values must
match on the reached states within ``10 * tol``. A view that only drops
moves shares the cached SCCs; an SCC marked cyclic may then have no cycle,
which the almost-sure loop and the sweeps' own re-split handle. No reverse
index spans the game: the almost-sure rounds and tie-settling layers run one
layered `_attractor` over a map of one cyclic SCC's moves. The step-bounded
price and the determinacy bracket are in ``tests/reference_solves.py``.
"""

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence, Union

from .errors import ModelError, _gc_paused
from .game import Move, Tsg, move_successors, strongly_connected
from .semantics import DigitalState, spell_delays

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 10**6

#: slack for the monotonicity check on value-iteration sweeps
_MONOTONE_SLACK = 1e-9

KINDS = ("prob-reach", "exp-price")
DIRECTIONS = ("maxmin", "minmax")


@dataclass(frozen=True)
class Objective:
    """What to optimize: kind, direction, and target (a label name, or a
    set of states, kept as a frozenset).

    Direction fixes the goals of the two sides: under ``maxmin`` player 1
    maximizes the quantity and player 2 minimizes it; ``minmax`` swaps the
    roles. `price` records which price structure the game was built with
    (informational).
    """

    kind: str
    direction: str
    target: Union[str, frozenset]
    price: str | None = None

    def __post_init__(self):
        if not isinstance(self.target, str):
            object.__setattr__(self, "target", frozenset(self.target))
        if self.kind not in KINDS:
            raise ModelError(f"unknown objective kind {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ModelError(f"unknown direction {self.direction!r}")


@dataclass
class SolveResult:
    """A solve's values, sets and merged profile pair. `strategy` is read and
    assigned as any field, but a converged `solve` makes it on its first
    read: until then the result holds the game, the values pass's backups
    and rounds, and the moves already chosen."""

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
    #: value backups a prob-reach or exp-price solve performed (not serialized)
    backups: int = 0

    def to_json_dict(self) -> dict:
        target = self.objective.target
        return {
            "objective": {
                "kind": self.objective.kind,
                "direction": self.objective.direction,
                "target": target if isinstance(target, str) else sorted(target),
                "horizon": None,  # no objective has a horizon; the key keeps the schema
                "price": self.objective.price,
            },
            "value": self.initial_value,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "strategy": None if self.strategy is None else [
                {"state": s, "action": a} for s, a in sorted(self.strategy.items())
            ],
        }


def _strategy(result: SolveResult):
    """`SolveResult.strategy`: as assigned, or made on its first read by the
    function a solve left in ``_pending``."""
    pending = vars(result).pop("_pending", None)
    if pending is not None:
        vars(result)["strategy"] = pending()
    return vars(result)["strategy"]


SolveResult.strategy = property(_strategy, lambda result, value: vars(result).update(strategy=value, _pending=None))


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


def _predecessors(moves: Sequence[Sequence[Move]], states: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """Reverse index of the moves of `states` alone: per target of a positive
    branch, the (state, move index) pairs into it."""
    preds: dict[int, list[tuple[int, int]]] = {}
    for s in states:
        for mi, move in enumerate(moves[s]):
            for t, p in move.branches:
                if p > 0:
                    preds.setdefault(t, []).append((s, mi))
    return preds


def _attractor(
    preds: dict[int, list[tuple[int, int]]],
    seeds: dict[int, int],
    exists: Collection[int],
    usable: dict[int, Collection[int]],
) -> tuple[dict[int, int], dict[int, set[int]]]:
    """Layered two-player attractor of `seeds` (seed -> layer), pending layers
    smallest first. A state in `exists` joins the layer after the first that
    one of its usable moves has a positive branch into; any other state, once
    it has usable moves and all have such a branch. `usable[s]` holds the
    usable move indices of s (a state missing from it has none), `preds` the
    reverse index of those moves. Returns each member's layer and, per state,
    the usable moves that hit before it joined."""
    layer = dict(seeds)
    pending: dict = {}
    for t, k in seeds.items():
        pending.setdefault(k, []).append(t)
    hits: dict[int, set[int]] = {}
    while pending:
        level = min(pending)
        touched = set()
        for t in pending.pop(level):
            for s, mi in preds.get(t, ()):
                if s in layer or mi not in usable.get(s, ()):
                    continue
                hits.setdefault(s, set()).add(mi)
                touched.add(s)
        for s in touched:
            if s in exists or len(hits[s]) == len(usable[s]):
                layer[s] = level + 1
                pending.setdefault(level + 1, []).append(s)
    return layer, hits


def _spoiler(moves: Sequence[Move], e, rounds: list) -> int:
    """Spoiling move of a state of the avoiding side dropped in round e, which
    keeps the target unreached with positive probability: its smallest move
    that leaves that round's candidates (a positive branch to a state dropped
    before e), or else the smallest that misses its attractor."""
    leave = [i for i, m in enumerate(moves) if any(p > 0 and rounds[t] < e for t, p in m.branches)]
    if not leave:
        leave = [i for i, m in enumerate(moves) if not any(p > 0 and rounds[t] > e for t, p in m.branches)]
    return _smallest(moves, leave)


def _cyclic_rounds(game, states, targets, reacher, rounds):
    """Set the drop rounds of one cyclic SCC whose exits have theirs: round r
    of the almost-sure loop shrinks the candidates to the attractor of
    `targets` over the moves that stay among them. Once the last exit has
    dropped, the first round that drops nothing is final."""
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
            stay = {
                mi for mi, m in enumerate(moves[s])
                if all(rounds[t] >= r for t, p in m.branches if p > 0)
            }
            if s in exists or len(stay) == len(moves[s]):
                usable[s] = stay
        live = dict.fromkeys(seeds + [t for t in exits if rounds[t] > r], 0)
        dropped = candidate.difference(_attractor(preds, live, exists, usable)[0])
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
    # no sweep: the pass stops at drop rounds and starting values
    result = _pass(game, Objective("prob-reach", direction, target_set), target_set, 0.0, 0)[0]
    return result.prob0, result.prob1


def _opt_for(game: Tsg, direction: str) -> list:
    """Per-state choice of max or min for the one-step backup."""
    maximizer = game.players[_reach_maximizer(direction)]
    return [max if p == maximizer else min for p in game.owner]


def _sides(game: Tsg, objective: Objective):
    """Whether `objective` prices, its reaching side and each state's max or min."""
    prices = objective.kind == "exp-price"
    maximizer = _reach_maximizer(objective.direction)
    return prices, game.players[1 - maximizer if prices else maximizer], _opt_for(game, objective.direction)


def prob_reach(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Optimal probability of reaching the target under the given direction."""
    return solve(game, Objective("prob-reach", direction, targets), tol, max_iters)


def expected_price(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Optimal expected price accumulated before reaching the target.

    States where the price-minimizing side cannot force the target almost
    surely get value infinity. Values are iterated from below, which credits
    a zero-price cycle as free, so the solve is refused when the minimizing
    side's profile does not force the target almost surely from every
    finite-valued state.
    """
    return solve(game, Objective("exp-price", direction, targets), tol, max_iters)


@_gc_paused
def solve(
    game: Tsg,
    objective: Objective,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """The values pass's values and sets, then the checks on its strategy;
    the result records `objective` itself. The certificate checks the play
    induced from the initial state."""
    _check_two_players(game)
    _check_tol(tol)
    target_set = _target_set(game, objective.target)
    result, steps, rounds = _pass(game, objective, target_set, tol, max_iters)
    stuck = sum(1 for s, moves in enumerate(game.moves) if not moves and s not in target_set)
    infinite = len(game.states) - len(result.prob1)
    treatment = "infinite price" if objective.kind == "exp-price" else "probability 0"
    result.warnings = [f"{stuck} non-target deadlock state(s) treated as {treatment}"] if stuck else []
    if objective.kind == "exp-price" and infinite:
        result.warnings.append(
            f"{infinite} state(s) cannot be forced to reach the target almost surely; "
            f"their expected price is infinite"
        )
    if result.converged:
        # with its own values a game with no cycle cannot stall: each finite
        # value is backed up from finite-valued successors, successors first
        every, passed = game.components, (game, objective, target_set, tol, result.values, steps, rounds)
        stall = objective.kind == "exp-price" and any(c for _, c in every)
        visit = every if stall else _demanded(game, objective, tol, steps)
        choice = _choose(*passed, visit)
        _check(game, objective, result.values, choice, tol, stall)
        pair = lambda: _profiles(game, choice if visit is every else _choose(*passed, every))
        vars(result)["_pending"] = lambda: dict.__or__(*pair())  # no cycle through `result` to collect
    else:
        result.warnings.append("value iteration did not converge; no strategy synthesized")
    return result


@_gc_paused
def time_bounded(game: Tsg, objective: Objective, top: int, tol: float = DEFAULT_TOL,
                 max_iters: int = DEFAULT_MAX_ITERS) -> tuple[list[list[float]], bool] | None:
    """`objective` within each time budget b = 0..`top`, by induction over
    the budget on the unbounded game (the epoch model of Hartmanns, Junges,
    Katoen & Quatmann, TACAS 2018), and whether it converged: ``levels[b][s]``
    is, bit for bit, what `solve` gives state (s, B - b) of ``bound_time(game,
    target, B)``. None where zero-delay moves form a cycle, which depends on
    the graph alone, not on prices or coalitions: there each bound's game
    is derived and solved. The certificate compares the values with the
    chain of the chosen moves, which the same visit of each (state, budget)
    cell backs up from vectors of its own."""
    _check_two_players(game)
    _check_tol(tol)
    if top < 0:
        raise ModelError("a time-bounded solve needs a probability or price objective and a bound >= 0")
    if not isinstance(game.states[game.initial], DigitalState):
        raise ModelError("a time-bounded solve needs a game built from a timed model")
    moves, order = game.moves, []
    instant = move_successors([[m for m in ms if m.time == 0] for ms in moves])
    for states, cyclic in strongly_connected(instant, len(moves)):
        if cyclic:
            return None
        order.append(states[0])
    if not game.states[game.initial].values:  # a delay-1 move stands for every longer one
        moves = [spell_delays(ms, top + 1) for ms in moves]
    live = max_iters >= 1
    levels, chain = _budgets(game, moves, objective, _target_set(game, objective.target), order, top, live)
    if live:
        _check_chain([pair for pairs in zip(levels, chain) for pair in zip(*pairs)], tol)
    return levels, live


def _budgets(game: Tsg, moves, objective: Objective, targets, order, top: int, live: bool):
    """Values per budget 0..`top`, and those of the chain of the chosen
    moves, from one visit per (state, budget) cell of `moves`, which with no
    clock `spell_delays` spelled out to delay `top` + 1. A move of delay d
    reads budget b - d, or an exhausted one past b (probability 0, price
    infinite); zero-delay moves read budget b, `order` visiting successors
    first. Past delay b + 1 a row follows the exhausted delay-(b + 1) row of
    its pair and backs up the same, unsure, so the best backup, the side's
    flag and the first index of either stay. A sure flag, that the reaching
    side forces the target, gives the pass's start value; where the pass
    backs up (if `live`), a value takes the best backup and the first
    optimal move, elsewhere the first keeping the flag. The chain backs up
    that move the same way from its own values and sure flags, never from
    the values."""
    prices, reacher, opt = _sides(game, objective)
    n, inf = len(game.moves), math.inf
    plans = []  # per state in `order` but the targets: it, its side reaching, min or max, its rows
    for s in [s for s in order if s not in targets]:
        rows = [(tuple([(t, p) for t, p in m.branches if p > 0]), m.price, m.time) for m in moves[s]]
        plans.append((s, game.owner[s] == reacher, opt[s], rows))
    start = (0.0, inf) if prices else (1.0, 0.0)  # the value of a sure and of an unsure state
    spent = ([start[1]] * n, [False] * n)
    known = [s in targets for s in range(n)]  # a target is sure
    first = [start[not k] for k in known]
    levels, chain = [], []  # levels[b], chain[b]: the values and sure flags at budget b
    for b in range(top + 1):
        values, sure, cvalues, csure = first[:], known[:], first[:], known[:]
        for s, reaching, best_of, rows in plans:
            if not rows:
                continue
            step, flags = [], []
            for branches, price, d in rows:
                at, ok = (values, sure) if d == 0 else levels[b - d] if d <= b else spent
                backup, forced = 0, bool(branches)
                for t, p in branches:
                    backup += p * at[t]
                    forced = forced and ok[t]
                step.append(price + backup if prices else backup)
                flags.append(forced)
            sure[s] = forced = any(flags) if reaching else all(flags)
            values[s] = start[not forced]
            c = flags.index(forced)
            if live and forced == prices:  # where the pass would back up
                best = best_of(step)
                _update(values, s, best)
                c = step.index(best)
            branches, price, d = rows[c]
            at, ok = (cvalues, csure) if d == 0 else chain[b - d] if d <= b else spent
            backup, forced = 0, bool(branches)
            for t, p in branches:
                backup += p * at[t]
                forced = forced and ok[t]
            csure[s] = forced
            cvalues[s] = (price + backup if prices else backup) if forced == prices else start[not forced]
        levels.append((values, sure))
        chain.append((cvalues, csure))
    return [values for values, _ in levels], [values for values, _ in chain]


def _iterate(
    moves: Sequence[Sequence[Move]],
    values: list[float],
    active: list[int],
    opt: list,
    tol: float,
    max_iters: int,
    prices: bool,
) -> tuple[int, float, bool, int]:
    """Solve the `active` states, in ascending order, SCC by SCC, successors
    first, in place, over the moves `moves[s]`: one backup on a trivial SCC,
    Gauss-Seidel sweeps in ascending order on a cyclic one until a sweep
    changes less than `tol`, at most `max_iters`. Returns (the most sweeps of
    an SCC, the largest final residual of a cyclic SCC, converged, backups);
    the first SCC at the cap stops the solve."""

    def sweep(states) -> float:
        residual = 0.0
        for s in states:
            residual = max(residual, _update(values, s, opt[s](_backups(moves[s], values, prices))))
        return residual

    most, worst, backups = 1, 0.0, 0
    local = {s: i for i, s in enumerate(active)}  # the search numbers the active states
    edges = lambda i: [local[t] for m in moves[active[i]] for t, p in m.branches if p > 0 and t in local]
    for members, cyclic in strongly_connected(edges, len(active)):
        component = [active[i] for i in members]
        sweeps = 0
        residual = math.inf
        while sweeps < (max_iters if cyclic else 1):
            sweeps += 1
            residual = sweep(component)
            if residual < tol:
                break
        backups += sweeps * len(component)
        if not cyclic:
            continue
        most = max(most, sweeps)
        worst = max(worst, residual)
        if residual >= tol:
            return most, worst, False, backups
    return most, worst, True, backups


def _backups(moves: Sequence[Move], values: list[float], prices: bool) -> list[float]:
    """One backup of each of the moves over `values` and positive branches."""
    step = []
    for m in moves:
        backup = 0  # added in branch order as the acyclic visit adds (`sum` compensates from 3.12)
        for t, p in m.branches:
            if p > 0:
                backup += p * values[t]
        step.append(m.price + backup if prices else backup)
    return step


def _update(values: list[float], s: int, new: float) -> float:
    """Raise values[s] to `new` (it may not fall); returns the rise."""
    old = values[s]
    if new < old - _MONOTONE_SLACK:
        raise ModelError(f"non-monotone sweep at state {s}: {old} -> {new}")
    if new == old:
        return 0.0
    values[s] = new
    return new - old


def _optimal(backups: list[float], best: float, tol: float) -> list[int]:
    """Indices of the backups tied with `best`. Converged values are only
    residual-accurate, so a finite backup within that slack counts as tied."""
    if math.isinf(best):
        return [i for i, b in enumerate(backups) if b == best]
    slack = 2 * tol * max(1.0, abs(best))
    return [i for i, b in enumerate(backups) if abs(b - best) <= slack]


def _pass(game: Tsg, objective: Objective, target_set, tol, max_iters, fixed=None, components=None):
    """The values pass, one successors-first visit of `game.components`:
    the result without warnings or strategy, each state's move backups over
    the final values, and the drop rounds. With `fixed`, the values are held
    at that vector. After a cyclic SCC ends above `tol`, the pass gives
    rounds and start values. With `components`, a successors-first part of
    `game.components` closed under moves, the pass visits those alone;
    other states keep value 0."""
    prices, reacher, opt = _sides(game, objective)
    moves, owner, inf = game.moves, game.owner, math.inf
    n = len(moves)
    live = fixed is None
    values = [0.0] * n if live else fixed
    converged = not live or max_iters >= 1  # until an SCC hits the cap
    most, worst = (1, 0.0) if converged else (0, inf)
    backups = 0
    rounds, steps = [0] * n, [None] * n
    for states, cyclic in game.components if components is None else components:
        if not cyclic:
            # one loop over the moves and one walk of each one's positive branches:
            # its work, min(min e, max e - 1) over their drop rounds e (0 with none;
            # the reaching side drops after its best move stops working, the other
            # after its first), and its backup
            s = states[0]
            ms = moves[s]
            target = s in target_set
            reaching = owner[s] == reacher
            works = 0 if reaching or not ms else inf
            steps[s] = step = []  # backups
            for m in ms:
                branches = m.branches
                if len(branches) == 1 and branches[0][1] > 0:
                    t, p = branches[0]
                    work, backup = rounds[t] - 1, p * values[t]
                else:
                    lo = inf
                    hi = 1  # rounds are >= 1
                    backup = 0  # as `_backups` adds
                    for t, p in branches:
                        if p > 0:
                            backup += p * values[t]
                            e = rounds[t]
                            lo, hi = (e if e < lo else lo), (e if e > hi else hi)
                    work = lo if lo < hi else hi - 1
                step.append(m.price + backup if prices else backup)
                if reaching:
                    if work > works:
                        works = work
                elif work < works:
                    works = work
            e = rounds[s] = inf if target else works + 1
            if live:
                values[s] = (0.0 if e == inf else inf) if prices else (1.0 if e == inf else 0.0)
                if converged and ms and ((e == inf and not target) if prices else 1 < e < inf):
                    best = step[0] if len(step) == 1 else opt[s](step)
                    old = values[s]  # raised as `_update` raises it
                    if best < old - _MONOTONE_SLACK:
                        raise ModelError(f"non-monotone sweep at state {s}: {old} -> {best}")
                    values[s] = best
                    backups += 1
            continue
        _cyclic_rounds(game, states, target_set, reacher, rounds)
        active = []
        for s in states:
            e = rounds[s]
            if live:
                values[s] = (0.0 if e == inf else inf) if prices else (1.0 if e == inf else 0.0)
                if (e == inf and s not in target_set) if prices else 1 < e < inf:
                    active.append(s)
        if not converged:
            continue
        if active:
            sweeps, residual, converged, count = _iterate(moves, values, active, opt, tol, max_iters, prices)
            most, worst, backups = max(most, sweeps), max(worst, residual), backups + count
            if not converged:
                continue
        for s in states:
            steps[s] = _backups(moves[s], values, prices)
    result = SolveResult(
        objective, values, values[game.initial], most, worst, converged,
        prob0=None if prices else frozenset(s for s, e in enumerate(rounds) if e == 1),
        prob1=frozenset(s for s, e in enumerate(rounds) if e == inf),
        backups=backups,
    )
    return result, steps, rounds


def _choose(game: Tsg, objective: Objective, target_set, tol, values, steps, rounds, components) -> dict[int, int]:
    """The choice step: a move index per state of `components`, successors
    first and closed under optimal moves, from the values pass's output."""
    prices, reacher, opt = _sides(game, objective)
    moves, owner, inf, choice = game.moves, game.owner, math.inf, {}
    layer = [inf] * len(moves)
    for t in target_set:
        layer[t] = 0
    for states, cyclic in components:
        if not cyclic:
            s = states[0]
            ms, step = moves[s], steps[s]
            if not ms:
                continue
            target, reaching, c = s in target_set, owner[s] == reacher, 0
            if len(ms) > 1:
                # the (delay, action)-smallest tied move, the earliest on equal keys;
                # the reaching side settles on a tied move into the earliest layer
                optimal = _optimal(step, opt[s](step), tol)
                c, key, settle = optimal[0], (inf, inf, ""), reaching and not target
                for i in optimal if len(optimal) > 1 else ():
                    m = ms[i]
                    low = inf if settle else 0
                    for t, p in m.branches if settle else ():
                        if p > 0 and layer[t] < low:
                            low = layer[t]
                    k = (low, m.time or 0, m.action)
                    if k < key:
                        c, key = i, k
            if not target:
                low = inf
                for t, p in ms[c].branches:
                    if p > 0 and layer[t] < low:
                        low = layer[t]
                layer[s] = low + 1
            if prices and not reaching and rounds[s] != inf and math.isinf(values[s]):
                c = _spoiler(ms, rounds[s], rounds)  # the avoider witnesses the infinity
            choice[s] = c
            continue
        preds = _predecessors(moves, states)
        exists = {s for s in states if owner[s] == reacher}
        usable = {}
        for s in states:
            if moves[s]:
                optimal = _optimal(steps[s], opt[s](steps[s]), tol)
                c = choice[s] = _smallest(moves[s], optimal)
                usable[s] = optimal if s in exists and s not in target_set else (c,)
                if prices and s not in exists and rounds[s] != inf and math.isinf(values[s]):
                    choice[s] = _spoiler(moves[s], rounds[s], rounds)  # the avoider witnesses the infinity
        joined, hits = _attractor(preds, {t: layer[t] for t in preds if layer[t] != inf}, exists, usable)
        for s, k in joined.items():
            layer[s] = k
            if s in exists and s in hits:
                choice[s] = _smallest(moves[s], hits[s])
    return choice


def _demanded(game: Tsg, objective: Objective, tol, steps):
    """The SCCs, successors first, of the closure of the initial state under
    optimal moves (spoilers among them), cyclic SCCs whole: its play and the
    layers its tie-breaks read. Past an eighth of the states, every SCC."""
    moves, opt = game.moves, _opt_for(game, objective.direction)
    reached, demanded, count = bytearray(len(moves)), [], 0
    reached[game.initial] = 1
    for component in reversed(game.components):  # predecessors first
        states, cyclic = component
        if not (any(reached[s] for s in states) if cyclic else reached[states[0]]):
            continue
        demanded.append(component)
        count += len(states)
        if 8 * count > len(moves):
            return game.components
        for s in states:
            step = steps[s]
            for i in (0,) if len(step) == 1 else _optimal(step, opt[s](step), tol) if step else ():
                for t, p in moves[s][i].branches:
                    if p > 0:
                        reached[t] = 1
    return demanded[::-1]


def synthesize(
    game: Tsg,
    objective: Objective,
    values: Union[SolveResult, Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> tuple[dict[int, str], dict[int, str]]:
    """Optimal memoryless deterministic profile pair extracted from values,
    by the solve's values pass with the values held fixed, then its choice
    step on every SCC. The reaching side's tie-break towards the attractor's
    earliest layer keeps a value-preserving loop from stalling forever. The
    zero-price stall check and the certificate then run as after a solve.
    """
    _check_two_players(game)
    _check_tol(tol)
    if isinstance(values, SolveResult):
        if not values.converged:
            raise ModelError("refusing to synthesize from non-converged values")
        values = values.values
    target_set = _target_set(game, objective.target)
    result, steps, rounds = _pass(game, objective, target_set, tol, 0, list(values))
    choice = _choose(game, objective, target_set, tol, result.values, steps, rounds, game.components)
    _check(game, objective, result.values, choice, tol, stall_check=True)
    return _profiles(game, choice)


def _check(game: Tsg, objective: Objective, values, choice, tol: float, stall_check: bool):
    """Refuse `choice` unless it passes the stall check, if asked, and the certificate."""
    if stall_check and objective.kind == "exp-price":
        # iteration from below credits zero-price cycles as free; its values
        # are the game's when the payer's profile forces the target almost
        # surely from every finite-valued state, which the qualitative pass
        # decides on a view keeping only the payer's chosen moves
        payer = game.players[1 - _reach_maximizer(objective.direction)]
        view = game.derive(moves=tuple(
            (ms[choice[s]],) if s in choice and game.owner[s] == payer else ms
            for s, ms in enumerate(game.moves)
        ))
        forced = _pass(view, objective, _target_set(game, objective.target), 0.0, 0)[0].prob1
        stalled = [s for s, v in enumerate(values) if not math.isinf(v) and s not in forced]
        if stalled:
            raise ModelError(
                f"expected price is ill-posed here: the minimizing side can stall at "
                f"zero price in {len(stalled)} state(s) (e.g. state {min(stalled)}); "
                f"give the stalling moves positive prices"
            )
    _certify(game, objective, values, choice, tol)


def _profiles(game: Tsg, choice) -> tuple[dict[int, str], dict[int, str]]:
    """`choice` as a profile pair of move labels."""
    profiles: tuple[dict[int, str], dict[int, str]] = ({}, {})
    labels: dict[tuple, str] = {}  # one label per distinct (delay, action)
    moves, owner, first = game.moves, game.owner, game.players[0]
    for s in sorted(choice):
        action, _, _, time = m = moves[s][choice[s]]
        label = labels.get((time, action))
        if label is None:
            label = labels[time, action] = m.label
        profiles[owner[s] != first][s] = label
    return profiles


def _smallest(moves: Sequence[Move], indices: Collection[int]) -> int:
    """Index of the (delay, action)-smallest of the indexed moves, the
    earlier one on equal keys."""
    if len(indices) == 1:
        return next(iter(indices))
    return min(indices, key=lambda i: (moves[i].sort_key(), i))


def _certify(
    game: Tsg,
    objective: Objective,
    vector: Sequence[float],
    choice: dict[int, int],
    tol: float,
):
    # Optimality holds along the play the profile pair actually induces from
    # the initial state; off-path states with infinite value keep arbitrary
    # recorded choices.
    moves = game.moves
    chain = [()] * len(moves)
    reached, play = bytearray(len(moves)), [game.initial]
    reached[game.initial] = 1
    for s in play:  # which grows as the walk reaches states
        if s in choice:
            chain[s] = (moves[s][choice[s]],)
            for t, p in chain[s][0].branches:
                if p > 0 and not reached[t]:
                    reached[t] = 1
                    play.append(t)
    # The induced Markov chain, a view keeping each reached state's chosen
    # move and sharing the cached SCCs, is evaluated by the solve's values
    # pass over the SCCs the walk reached.
    view = game.derive(moves=tuple(chain))
    visited = [c for c in game.components if (any(reached[s] for s in c[0]) if c[1] else reached[c[0][0]])]
    check = _pass(view, objective, _target_set(game, objective.target), tol, DEFAULT_MAX_ITERS,
                  None, visited)[0].values
    _check_chain([(vector[s], check[s]) for s in play], tol)


def _check_chain(pairs, tol: float):
    """Raise unless each (claimed, chain) value pair agrees within ``10 * tol``."""
    worst = 0.0
    for a, b in pairs:
        if not (math.isinf(a) and math.isinf(b)):
            worst = max(worst, abs(a - b))
    if worst > 10 * tol:
        raise ModelError(
            f"synthesized profile fails its optimality certificate: induced chain "
            f"deviates by {worst:.3e} (> {10 * tol:.1e})"
        )
