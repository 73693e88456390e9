"""Digital-clocks construction of the explicit game for a timed model.

Time is restricted to the naturals and clock values saturate one past each
clock's largest compared constant. Moves are atomic (delay, action) pairs:
a delay is feasible when the location invariant holds at the endpoint (for
closed conjunctive constraints this is equivalent to holding throughout),
and an action fires when its enabling condition holds after the delay.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .clocks import ClockValuation
from .errors import ModelError, StateLimitError
from .game import DEADLOCK_LABEL, Move, Tsg
from .model import Tptg, errors_only, max_constants, validate_assumptions

DEFAULT_STATE_LIMIT = 5_000_000


@dataclass(frozen=True)
class DigitalState:
    """Reachable configuration: a location and a saturated clock valuation."""

    location: str
    valuation: ClockValuation

    def __str__(self) -> str:
        values = ",".join(f"{x}={v}" for x, v in self.valuation.as_dict().items())
        return f"({self.location} | {values})"


@dataclass(frozen=True)
class DigitalMove:
    """A (delay, action) move with its exact branch distribution and price."""

    time: int
    action: str
    branches: tuple[tuple[DigitalState, Fraction], ...]
    price: int


def _max_delay(model: Tptg, state: DigitalState) -> int:
    invariant = model.invariants[state.location]
    v = state.valuation
    best: int | None = None
    for atom in invariant.atoms:
        if atom.op == "<=":
            slack = atom.bound - v[atom.clock]
            best = slack if best is None else min(best, slack)
    if best is None:
        # No upper bound in the invariant (only possible when the bounded-
        # invariants check was bypassed): beyond full saturation further
        # delays are indistinguishable, so cap there.
        best = 1 + max(v.ceilings, default=0)
    return max(best, 0)


def _actions_by_location(model: Tptg) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for (location, action) in model.transitions:
        index.setdefault(location, []).append(action)
    for actions in index.values():
        actions.sort()
    return index


def enumerate_moves(
    model: Tptg,
    state: DigitalState,
    price: str | None = None,
    _actions: dict[str, list[str]] | None = None,
) -> list[DigitalMove]:
    """All (delay, action) moves available in `state`, ordered by (delay, action).

    Branch probabilities to the same successor state are aggregated. An empty
    result means the state is a deadlock.
    """
    structure = model.prices[price] if price is not None else None
    location = state.location
    invariant = model.invariants[location]
    if _actions is None:
        _actions = _actions_by_location(model)
    actions = _actions.get(location, [])
    moves: list[DigitalMove] = []
    for t in range(_max_delay(model, state) + 1):
        advanced = state.valuation.advance(t)
        if not advanced.satisfies(invariant):
            break
        for action in actions:
            if not advanced.satisfies(model.enabling[(location, action)]):
                continue
            outcomes: dict[DigitalState, Fraction] = {}
            for branch in model.transitions[(location, action)]:
                landed = advanced.reset(branch.resets)
                successor = DigitalState(branch.target, landed)
                if not landed.satisfies(model.invariants[branch.target]):
                    raise ModelError(
                        f"edge ({location!r}, {action!r}) reaches "
                        f"{successor}, violating the target invariant"
                    )
                outcomes[successor] = outcomes.get(successor, Fraction(0)) + branch.prob
            cost = 0
            if structure is not None:
                cost = t * structure.rate(location) + structure.action_price(location, action)
            moves.append(
                DigitalMove(t, action, tuple(outcomes.items()), cost)
            )
    return moves


def initial_state(model: Tptg) -> DigitalState:
    return DigitalState(model.initial, ClockValuation.zero(max_constants(model)))


def build(
    model: Tptg,
    price: str | None = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Tsg:
    """Explore the digital semantics breadth-first into an explicit game.

    Every model label is attached. `price` picks the price structure baked
    into move prices (default: all prices zero). The construction is
    deterministic: states are indexed in BFS discovery order and moves kept
    in (delay, action) order.
    """
    diagnostics = errors_only(validate_assumptions(model))
    if diagnostics:
        summary = "; ".join(str(d) for d in diagnostics[:5])
        if len(diagnostics) > 5:
            summary += f"; and {len(diagnostics) - 5} more"
        raise ModelError(f"model fails digital-semantics prerequisites: {summary}")
    if price is not None and price not in model.prices:
        raise ModelError(f"unknown price structure {price!r}")

    start = initial_state(model)
    index: dict[DigitalState, int] = {start: 0}
    states: list[DigitalState] = [start]
    all_moves: list[tuple[Move, ...]] = []
    queue: deque[DigitalState] = deque([start])
    action_index = _actions_by_location(model)
    while queue:
        current = queue.popleft()
        moves = []
        for dm in enumerate_moves(model, current, price, action_index):
            branches = []
            for successor, prob in dm.branches:
                target = index.get(successor)
                if target is None:
                    if len(states) >= state_limit:
                        raise StateLimitError(state_limit, len(states))
                    target = len(states)
                    index[successor] = target
                    states.append(successor)
                    queue.append(successor)
                branches.append((target, float(prob)))
            moves.append(
                Move(
                    action=dm.action,
                    branches=tuple(branches),
                    price=float(dm.price),
                    time=dm.time,
                )
            )
        all_moves.append(tuple(moves))

    labels: dict[str, frozenset[int]] = {}
    for name, label in model.labels.items():
        members = frozenset(
            i
            for i, s in enumerate(states)
            if s.location in label.locations and s.valuation.satisfies(label.guard)
        )
        labels[name] = members
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
    )


def reprice(game: Tsg, model: Tptg, price: str | None) -> Tsg:
    """Same game with move prices recomputed under another price structure;
    branches and move order are kept, so the predecessor index is shared."""
    if price is not None and price not in model.prices:
        raise ModelError(f"unknown price structure {price!r}")
    structure = model.prices[price] if price is not None else None
    new_moves = []
    for state, moves in zip(game.states, game.moves):
        if not isinstance(state, DigitalState):
            raise ModelError("reprice needs a game built from a timed model")
        repriced = []
        for m in moves:
            cost = 0.0
            if structure is not None:
                cost = float(
                    m.time * structure.rate(state.location)
                    + structure.action_price(state.location, m.action)
                )
            repriced.append(Move(m.action, m.branches, cost, m.time))
        new_moves.append(tuple(repriced))
    return game.derive(moves=tuple(new_moves))


def state_index(game: Tsg) -> dict[tuple[str, tuple[int, ...]], int]:
    """Lookup from (location, clock values) to state index for a built game."""
    mapping = {}
    for i, s in enumerate(game.states):
        if isinstance(s, DigitalState):
            mapping[(s.location, s.valuation.values)] = i
    return mapping
