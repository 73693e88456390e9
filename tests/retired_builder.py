"""Reference builder: the digital-clocks game explored by per-delay checks.

This is the construction :func:`tptg.build` used before it lowered the model
into per-location integer tables. For every state it tries each delay t in
turn, advances a :class:`ClockValuation`, and re-evaluates each invariant,
guard and label atom through the valuation's clock-name lookup. It is kept
here, unchanged in behaviour, as a differential oracle: `build` returns the
same game as the package function of that name, and `enumerate_moves` the
same moves as `semantics._Lowered.moves`. `ClockValuation` is the state
record the package used before its states became plain ``(location,
values)`` records, and `DigitalMove` the move record the package returned
from its own `enumerate_moves`.

It is also the oracle of :func:`tptg.bound_time`: ``build(model, price,
observer=(target, bound))`` explores the model with an observer clock
appended, the construction the package's ``with_time_bound`` made before
time bounds were derived from the one unbounded game. That clock,
``_elapsed`` extended with ``_`` past the model's clock names, is never
reset and saturates at ``bound + 1``, and the label
``f"{target}_by_{bound}"`` holds at `target`'s locations while it is at
most `bound`.
"""

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from tptg.clocks import ClockConstraint
from tptg.errors import ModelError, StateLimitError
from tptg.game import DEADLOCK_LABEL, Move, Tsg
from tptg.model import Tptg, errors_only, max_constants, validate_assumptions
from tptg.semantics import DEFAULT_STATE_LIMIT, DigitalState


@dataclass(frozen=True)
class DigitalMove:
    """A (delay, action) move with its exact branch distribution and price."""

    time: int
    action: str
    branches: tuple[tuple[DigitalState, Fraction], ...]
    price: int


@dataclass(frozen=True)
class ClockValuation:
    """Integer clock values with per-clock saturation at ``ceiling + 1``.

    `ceilings` holds, per clock, the largest constant the clock is compared
    against anywhere in the model; advancing time never pushes a value past
    ``ceiling + 1``, which compares like any number above the ceiling.
    """

    clocks: tuple[str, ...]
    values: tuple[int, ...]
    ceilings: tuple[int, ...]

    @classmethod
    def zero(cls, ceilings: Mapping[str, int]) -> "ClockValuation":
        names = tuple(ceilings)
        return cls(names, (0,) * len(names), tuple(ceilings[x] for x in names))

    def __getitem__(self, clock: str) -> int:
        try:
            return self.values[self.clocks.index(clock)]
        except ValueError:
            raise ModelError(f"unknown clock {clock!r}") from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.clocks, self.values))

    def advance(self, t: int) -> "ClockValuation":
        """Add `t` to every clock, saturating each at its ceiling plus one."""
        if t < 0:
            raise ModelError("time advance must be non-negative")
        if t == 0:
            return self
        values = tuple(
            min(v + t, k + 1) for v, k in zip(self.values, self.ceilings)
        )
        return ClockValuation(self.clocks, values, self.ceilings)

    def reset(self, subset: Iterable[str]) -> "ClockValuation":
        subset = frozenset(subset)
        unknown = subset - set(self.clocks)
        if unknown:
            raise ModelError(f"reset of unknown clock(s) {sorted(unknown)}")
        if not subset:
            return self
        values = tuple(
            0 if x in subset else v for x, v in zip(self.clocks, self.values)
        )
        return ClockValuation(self.clocks, values, self.ceilings)

    def satisfies(self, constraint: ClockConstraint) -> bool:
        for atom in constraint.atoms:
            if not atom.holds(self[atom.clock]):
                return False
        return True


@dataclass(frozen=True)
class _State:
    """The oracle's own state record: a location and a saturated valuation."""

    location: str
    valuation: ClockValuation

    def __str__(self) -> str:
        values = ",".join(f"{x}={v}" for x, v in self.valuation.as_dict().items())
        return f"({self.location} | {values})"

    def public(self) -> DigitalState:
        return DigitalState(self.location, self.valuation.values)


def _max_delay(model: Tptg, state: _State) -> int:
    invariant = model.invariants[state.location]
    v = state.valuation
    best: int | None = None
    for atom in invariant.atoms:
        if atom.op == "<=":
            slack = atom.bound - v[atom.clock]
            best = slack if best is None else min(best, slack)
    if best is None:
        best = 1 + max(v.ceilings, default=0)
    return max(best, 0)


def _actions_by_location(model: Tptg) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for (location, action) in model.transitions:
        index.setdefault(location, []).append(action)
    for actions in index.values():
        actions.sort()
    return index


def _moves(model: Tptg, state: _State, price, actions_by_location) -> list[DigitalMove]:
    structure = model.prices[price] if price is not None else None
    location = state.location
    invariant = model.invariants[location]
    actions = actions_by_location.get(location, [])
    moves: list[DigitalMove] = []
    for t in range(_max_delay(model, state) + 1):
        advanced = state.valuation.advance(t)
        if not advanced.satisfies(invariant):
            break
        for action in actions:
            if not advanced.satisfies(model.enabling[(location, action)]):
                continue
            outcomes: dict[_State, Fraction] = {}
            for branch in model.transitions[(location, action)]:
                landed = advanced.reset(branch.resets)
                successor = _State(branch.target, landed)
                if not landed.satisfies(model.invariants[branch.target]):
                    raise ModelError(
                        f"edge ({location!r}, {action!r}) reaches "
                        f"{successor}, violating the target invariant"
                    )
                outcomes[successor] = outcomes.get(successor, Fraction(0)) + branch.prob
            cost = 0
            if structure is not None:
                cost = t * structure.rate(location) + structure.action_price(location, action)
            moves.append(DigitalMove(t, action, tuple(outcomes.items()), cost))
    return moves


def enumerate_moves(model: Tptg, state: DigitalState, price=None) -> list[DigitalMove]:
    valuation = replace(ClockValuation.zero(max_constants(model)), values=state.values)
    return [
        DigitalMove(m.time, m.action, tuple((s.public(), p) for s, p in m.branches), m.price)
        for m in _moves(model, _State(state.location, valuation), price, _actions_by_location(model))
    ]


def build(
    model: Tptg,
    price=None,
    state_limit: int = DEFAULT_STATE_LIMIT,
    observer: tuple[str, int] | None = None,
) -> Tsg:
    ceilings = max_constants(model)
    if observer is not None:
        observed, bound = observer
        if bound < 0:
            raise ModelError("time bound must be non-negative")
        if observed not in model.labels:
            raise ModelError(f"unknown label {observed!r}")
        clock = "_elapsed"
        while clock in model.clocks:
            clock += "_"
        ceilings[clock] = bound
    diagnostics = errors_only(validate_assumptions(model))
    if diagnostics:
        summary = "; ".join(str(d) for d in diagnostics[:5])
        if len(diagnostics) > 5:
            summary += f"; and {len(diagnostics) - 5} more"
        raise ModelError(f"model fails digital-semantics prerequisites: {summary}")
    if price is not None and price not in model.prices:
        raise ModelError(f"unknown price structure {price!r}")

    start = _State(model.initial, ClockValuation.zero(ceilings))
    index: dict[_State, int] = {start: 0}
    states: list[_State] = [start]
    all_moves: list[tuple[Move, ...]] = []
    queue: deque[_State] = deque([start])
    action_index = _actions_by_location(model)
    while queue:
        current = queue.popleft()
        moves = []
        for dm in _moves(model, current, price, action_index):
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
                Move(action=dm.action, branches=tuple(branches), price=float(dm.price), time=dm.time)
            )
        all_moves.append(tuple(moves))

    labels: dict[str, frozenset[int]] = {}
    for name, label in model.labels.items():
        labels[name] = frozenset(i for i, s in enumerate(states) if s.location in label)
    if observer is not None:
        reached = model.labels[observed]
        labels[f"{observed}_by_{bound}"] = frozenset(
            i
            for i, s in enumerate(states)
            if s.location in reached and s.valuation[clock] <= bound
        )
    deadlocked = frozenset(i for i, ms in enumerate(all_moves) if not ms)
    if deadlocked:
        labels[DEADLOCK_LABEL] = labels.get(DEADLOCK_LABEL, frozenset()) | deadlocked

    return Tsg(
        states=tuple(s.public() for s in states),
        initial=0,
        players=model.players,
        owner=tuple(model.owner[s.location] for s in states),
        moves=tuple(all_moves),
        labels=labels,
    )
