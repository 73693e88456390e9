"""Digital-clocks construction of the explicit game for a timed model.

Time is restricted to the naturals and clock values saturate one past each
clock's largest compared constant. Moves are atomic (delay, action) pairs:
a delay is feasible when the location invariant holds at the endpoint (for
closed conjunctive constraints this is equivalent to holding throughout),
and an action fires when its enabling condition holds after the delay.
"""

import math
from dataclasses import fields
from typing import NamedTuple, Sequence

from .clocks import LE, ClockConstraint
from .errors import ModelError, StateLimitError, _gc_paused, summarize
from .game import DEADLOCK_LABEL, Move, Tsg
from .model import PriceStructure, Tptg, errors_only, max_constants, validate_assumptions

DEFAULT_STATE_LIMIT = 5_000_000


class DigitalState(NamedTuple):
    """Reachable configuration: a location and its clock values, saturated one
    past each clock's ceiling, in the model's clock order (`max_constants`).
    It compares and hashes like the plain ``(location, values)`` tuple."""

    location: str
    values: tuple[int, ...]


_UNPRICED: tuple[int, dict[str, int]] = (0, {})


def _price_table(model: Tptg, price: str | None) -> dict[str, tuple[int, dict[str, int]]]:
    """Location -> (rate, action -> action price) under `price`; a location
    missing from the table has rate 0 and no action prices (`_UNPRICED`)."""
    if price is not None and price not in model.prices:
        raise ModelError(f"unknown price structure {price!r}")
    structure = model.prices[price] if price is not None else PriceStructure()
    table = {location: (rate, {}) for location, rate in structure.rates.items()}
    for (location, action), value in structure.action_prices.items():
        table.setdefault(location, (0, {}))[1][action] = value
    return table


class _Lowered:
    """A model lowered once into per-location tables over clock indices.

    A constraint becomes ``(clock index, low, high)`` intervals, one per
    clock it mentions (`high` is infinite without a ``<=`` atom). Every
    bound is at most its clock's ceiling k, so ``min(v + t, k + 1) <= b``
    holds exactly when ``v + t <= b``, and likewise for ``>=``: the delays
    that keep an invariant or enable a guard form an integer interval, read
    off the state's values without advancing them.
    """

    def __init__(self, model: Tptg, price: str | None):
        ceilings = max_constants(model)
        self.clocks = tuple(ceilings)
        self.saturated = tuple(k + 1 for k in ceilings.values())
        # the delay cap of an invariant with no upper bound: past full
        # saturation further delays are indistinguishable
        self.unbounded_delay = 1 + max(ceilings.values(), default=0)
        self.position = {x: i for i, x in enumerate(self.clocks)}
        invariants = {loc: self.lower(model.invariants[loc]) for loc in model.locations}
        prices = _price_table(model, price)
        edges: dict[str, list] = {}
        for (location, action) in sorted(model.transitions):
            branches = tuple(
                (
                    branch.target,
                    tuple(sorted(self.position[x] for x in branch.resets)),
                    invariants[branch.target],
                    branch.prob,
                    float(branch.prob),
                )
                for branch in model.transitions[(location, action)]
            )
            action_price = prices.get(location, _UNPRICED)[1].get(action, 0)
            edges.setdefault(location, []).append(
                (action, self.lower(model.enabling[(location, action)]), branches, action_price)
            )
        self.table = {
            loc: (invariants[loc], prices.get(loc, _UNPRICED)[0], tuple(edges.get(loc, ())))
            for loc in model.locations
        }

    def lower(self, constraint: ClockConstraint) -> tuple[tuple[int, int, float], ...]:
        intervals: dict[int, list] = {}
        for atom in constraint.atoms:
            if atom.clock not in self.position:
                raise ModelError(f"unknown clock {atom.clock!r}")
            interval = intervals.setdefault(self.position[atom.clock], [0, math.inf])
            if atom.op == LE:
                interval[1] = min(interval[1], atom.bound)
            else:
                interval[0] = max(interval[0], atom.bound)
        return tuple((i, low, high) for i, (low, high) in intervals.items())

    def moves(self, location: str, values: tuple[int, ...]) -> list:
        """The moves of one state as ``(delay, action, price, outcomes)``, in
        (delay, action) order. `outcomes` maps each successor ``(location,
        values)``, in first-branch order, to ``(float, Fraction)``
        probabilities; the float is None where branches collided, since
        only their exact sum converts to the right float."""
        invariant, rate, edges = self.table[location]
        # the delays keeping the invariant; none if it fails now, since
        # delaying stops at the first delay where it fails
        last = self.unbounded_delay
        for i, low, high in invariant:
            v = values[i]
            if v < low:
                return []
            if high - v < last:
                last = high - v
        windows = []
        for edge in edges:
            first, stop = 0, last
            for i, low, high in edge[1]:
                v = values[i]
                if low - v > first:
                    first = low - v
                if high - v < stop:
                    stop = high - v
            if first <= stop:
                windows.append((first, stop, edge))
        moves = []
        if not windows:
            return moves
        saturated = self.saturated
        for t in range(min(w[0] for w in windows), max(w[1] for w in windows) + 1):
            advanced = None
            for first, stop, (action, _, branches, action_price) in windows:
                if not first <= t <= stop:
                    continue
                if advanced is None:
                    advanced = tuple([v + t if v + t < k else k for v, k in zip(values, saturated)])
                outcomes: dict = {}
                for target, resets, target_invariant, prob, fprob in branches:
                    landed = advanced
                    if resets:
                        cleared = list(advanced)
                        for i in resets:
                            cleared[i] = 0
                        landed = tuple(cleared)
                    for i, low, high in target_invariant:
                        if not low <= landed[i] <= high:
                            shown = ",".join(f"{x}={v}" for x, v in zip(self.clocks, landed))
                            raise ModelError(
                                f"edge ({location!r}, {action!r}) reaches "
                                f"({target} | {shown}), violating the target invariant"
                            )
                    key = (target, landed)
                    seen = outcomes.get(key)
                    outcomes[key] = (fprob, prob) if seen is None else (None, seen[1] + prob)
                moves.append((t, action, t * rate + action_price, outcomes))
        return moves


@_gc_paused
def build(
    model: Tptg,
    price: str | None = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Tsg:
    """Explore the digital semantics breadth-first into an explicit game.

    Every model label is attached. `price` picks the price structure baked
    into move prices (default: all prices zero). The construction is
    deterministic: states are indexed in BFS discovery order and moves kept
    in (delay, action) order. The game's `origin` is ``(model, price)``.
    """
    diagnostics = errors_only(validate_assumptions(model))
    if diagnostics:
        raise ModelError(f"model fails digital-semantics prerequisites: {summarize(diagnostics)}")
    lowered = _Lowered(model, price)
    start = (model.initial, (0,) * len(lowered.clocks))
    # states are numbered in discovery order, so walking `states` while it
    # grows is the breadth-first queue; `index` keys are the plain tuples
    states = [DigitalState(*start)]
    index = {start: 0}
    all_moves: list[tuple[Move, ...]] = []
    for location, values in states:
        moves = []
        for t, action, cost, outcomes in lowered.moves(location, values):
            branches = []
            for key, (fprob, prob) in outcomes.items():
                target = index.get(key)
                if target is None:
                    if len(states) >= state_limit:
                        raise StateLimitError(state_limit, len(states))
                    target = index[key] = len(states)
                    states.append(DigitalState._make(key))
                branches.append((target, float(prob) if fprob is None else fprob))
            moves.append(Move(action, tuple(branches), float(cost), t))
        all_moves.append(tuple(moves))
    # only the state records outlive the search
    del index

    labels: dict[str, frozenset[int]] = {}
    for name, label in model.labels.items():
        members = [i for i, (location, _) in enumerate(states) if location in label]
        labels[name] = frozenset(members)
    deadlocked = frozenset(i for i, ms in enumerate(all_moves) if not ms)
    if deadlocked:
        labels[DEADLOCK_LABEL] = labels.get(DEADLOCK_LABEL, frozenset()) | deadlocked

    return Tsg(
        states=tuple(states),
        initial=0,
        players=model.players,
        owner=tuple(model.owner[s.location] for s in states),
        moves=tuple(all_moves),
        labels=labels,
    ).derive(origin=(model, price))


def _reweighed(m: Move, state: DigitalState, weight: tuple, saturated: tuple[int, ...]) -> tuple:
    """The branches of `m`, a move of `state`, under the `weight` of its
    changed distribution (the branches' floats, and their exact target,
    reset indices and probability), as `build` computes them: where branches
    collided, the exact probabilities of each landing are summed in
    first-branch order, as `_Lowered.moves` sums them."""
    floats, exact = weight
    branches = m.branches
    if len(branches) == len(floats):
        return tuple([(t, f) for (t, _), f in zip(branches, floats)])
    location, values = state
    t = m.time
    advanced = tuple([v + t if v + t < k else k for v, k in zip(values, saturated)])
    outcomes: dict = {}
    for target, resets, prob in exact:
        landed = tuple([0 if i in resets else v for i, v in enumerate(advanced)]) if resets else advanced
        outcomes[target, landed] = outcomes.get((target, landed), 0) + prob
    if len(outcomes) != len(branches):
        raise ModelError(f"state ({location}, {values}) was not built from this model")
    return tuple([(s, float(q)) for (s, _), q in zip(branches, outcomes.values())])


@_gc_paused
def reweigh(game: Tsg, model: Tptg, price: str | None = None) -> Tsg | None:
    """The game ``build(model, price)`` gives, from `game`, without exploring
    again. `game` is one that `build` or `reweigh` returned: its `origin`
    names the model and price structure it was made from, and any other
    game, such as a view, is refused with a ModelError. With `model` as
    that model, the result is `game` under another price structure.

    `model` may differ from the origin's model in branch probabilities
    alone: each distribution keeps its targets and resets, in order, and
    stays positive, so the graph and its cached components are shared (the
    parametric model instantiated per valuation of Quatmann, Dehnert,
    Jansen, Junges & Katoen, ATVA 2016). Returns None otherwise: then only
    `build` gives the game, or refuses `model`.

    One walk of the rows recomputes the branches of a changed
    distribution's moves as `build` computes them and, under another price
    structure, every price; it shares each move whose branches and price
    stay, and each row none of whose moves changes. Where the price
    structure stays, a row at a location with no changed distribution is
    shared unread, as storm-pars rewrites only the matrix entries that
    read a parameter.
    """
    if game.origin is None:
        raise ModelError("reweigh needs a game that build or reweigh returned")
    source, source_price = game.origin
    for f in fields(Tptg):
        if f.compare and f.name != "transitions" and getattr(model, f.name) != getattr(source, f.name):
            return None
    if model.transitions.keys() != source.transitions.keys():
        return None
    changed = {}
    for key, dist in model.transitions.items():
        old = source.transitions[key]
        if dist == old:
            continue
        if (
            len(dist) != len(old)
            or any((b.target, b.resets) != (a.target, a.resets) for a, b in zip(old, dist))
            or any(not 0 < b.prob <= 1 for b in dist)
            or sum(b.prob for b in dist) != 1
        ):
            return None
        changed[key] = dist
    table = _price_table(model, price)
    ceilings = max_constants(model) if changed else {}
    saturated = tuple(k + 1 for k in ceilings.values())
    position = {x: i for i, x in enumerate(ceilings)}  # the clock order of states
    weights: dict[str, dict] = {}  # location -> action -> its distribution's weight
    for (location, action), dist in changed.items():
        weights.setdefault(location, {})[action] = (
            tuple(float(b.prob) for b in dist),
            tuple((b.target, tuple(sorted(position[x] for x in b.resets)), b.prob) for b in dist),
        )
    same = source_price == price
    new_moves = []
    for state, moves in zip(game.states, game.moves):
        local = weights.get(state.location)
        if same and not local:
            new_moves.append(moves)
            continue
        rate, action_prices = table.get(state.location, _UNPRICED)
        row, fresh = [], False
        for m in moves:
            weight = local.get(m.action) if local else None
            branches = m.branches if weight is None else _reweighed(m, state, weight, saturated)
            cost = m.price if same else float(m.time * rate + action_prices.get(m.action, 0))
            if branches is not m.branches or cost != m.price:
                m, fresh = Move(m.action, branches, cost, m.time), True
            row.append(m)
        new_moves.append(tuple(row) if fresh else moves)
    return game.derive(moves=tuple(new_moves), origin=(model, price))


def spell_delays(moves: Sequence[Move], cap: int) -> list[Move]:
    """A state's moves in a game with no clock, each delay-1 move (which stands
    for every longer delay) spelled out for the delays 1..`cap`, delay-major,
    as `bound_time` and `solver.time_bounded` read them."""
    now = [m for m in moves if m.time == 0]
    later = [m for m in moves if m.time == 1]
    return now + [
        Move(m.action, m.branches, m0.price + t * (m.price - m0.price), t)
        for t in range(1, cap + 1) for m0, m in zip(now, later)
    ]


@_gc_paused
def bound_time(game: Tsg, target: str, bound: int, state_limit: int = DEFAULT_STATE_LIMIT) -> Tsg:
    """The digital-clocks game of the model with an observer clock
    (Kwiatkowska, Norman, Parker & Sproston, FMSD 2006), derived from
    `game`, built or reweighed as ``build(model, price)``. The clock is
    never reset and saturates just past `bound`; the test oracle in
    ``tests/retired_builder.py`` builds that game directly.

    A state is a state of `game` with the clock's value e appended,
    ``(location, values + (e,))``; a move of delay d takes e to
    ``min(e + d, bound + 1)``. Every label is carried over, and the label
    ``f"{target}_by_{bound}"`` holds where e <= bound. States are numbered
    breadth-first from ``(game.initial, 0)``. The observer-clock model
    builds the same game because no delay reaches `build`'s cap: every
    invariant bounds every clock (`validate_assumptions`). A model with no
    clock caps every delay at 1, which stands for every longer one: each
    state is spelled out to delay `bound` + 1 once (`spell_delays`).
    """
    if bound < 0:
        raise ModelError("time bound must be non-negative")
    members = game.label_states(target)
    if not isinstance(game.states[game.initial], DigitalState):
        raise ModelError("bound_time needs a game built from a timed model")
    cap = bound + 1
    width = cap + 1  # a state is keyed s * width + e, s a state of `game`
    moves = game.moves
    if not game.states[game.initial].values:
        moves = [spell_delays(ms, cap) for ms in moves]
    keys = [game.initial * width]
    index = {keys[0]: 0}
    all_moves = []
    for key in keys:  # the breadth-first queue, growing as it is walked
        s, e = divmod(key, width)
        row = []
        for action, old, price, time in moves[s]:
            landed = e + time if e + time < cap else cap
            branches = []
            for t, p in old:
                key = t * width + landed
                i = index.get(key)
                if i is None:
                    if len(keys) >= state_limit:
                        raise StateLimitError(state_limit, len(keys))
                    i = index[key] = len(keys)
                    keys.append(key)
                branches.append((i, p))
            row.append(Move(action, tuple(branches), price, time))
        all_moves.append(tuple(row))
    pairs = [divmod(key, width) for key in keys]
    labels = {
        name: frozenset([i for i, (s, _) in enumerate(pairs) if s in states])
        for name, states in game.labels.items()
    }
    labels[f"{target}_by_{bound}"] = frozenset(
        [i for i, (s, e) in enumerate(pairs) if s in members and e <= bound]
    )
    records = game.states
    return Tsg(
        states=tuple([DigitalState(records[s].location, records[s].values + (e,)) for s, e in pairs]),
        initial=0,
        players=game.players,
        owner=tuple([game.owner[s] for s, _ in pairs]),
        moves=tuple(all_moves),
        labels=labels,
    )
