"""Reference builder: the digital-clocks game explored by per-delay checks.

This is the construction :func:`tptg.build` used before it lowered the model
into per-location integer tables. For every state it tries each delay t in
turn, advances the :class:`~tptg.clocks.ClockValuation`, and re-evaluates
each invariant and guard atom through the valuation's clock-name lookup. It
is kept here, unchanged in behaviour, as a differential oracle: `build`
returns the same game, and `enumerate_moves` the same moves, as the package
functions of those names.
"""

from collections import deque
from fractions import Fraction

from tptg.clocks import ClockValuation
from tptg.errors import ModelError, StateLimitError
from tptg.game import DEADLOCK_LABEL, Move, Tsg
from tptg.model import Tptg, errors_only, max_constants, validate_assumptions
from tptg.semantics import DEFAULT_STATE_LIMIT, DigitalMove, DigitalState


def _max_delay(model: Tptg, state: DigitalState) -> int:
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


def enumerate_moves(model, state, price=None, actions_by_location=None) -> list[DigitalMove]:
    structure = model.prices[price] if price is not None else None
    location = state.location
    invariant = model.invariants[location]
    if actions_by_location is None:
        actions_by_location = _actions_by_location(model)
    actions = actions_by_location.get(location, [])
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
            moves.append(DigitalMove(t, action, tuple(outcomes.items()), cost))
    return moves


def build(model: Tptg, price=None, state_limit: int = DEFAULT_STATE_LIMIT) -> Tsg:
    diagnostics = errors_only(validate_assumptions(model))
    if diagnostics:
        summary = "; ".join(str(d) for d in diagnostics[:5])
        if len(diagnostics) > 5:
            summary += f"; and {len(diagnostics) - 5} more"
        raise ModelError(f"model fails digital-semantics prerequisites: {summary}")
    if price is not None and price not in model.prices:
        raise ModelError(f"unknown price structure {price!r}")

    start = DigitalState(model.initial, ClockValuation.zero(max_constants(model)))
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
                Move(action=dm.action, branches=tuple(branches), price=float(dm.price), time=dm.time)
            )
        all_moves.append(tuple(moves))

    labels: dict[str, frozenset[int]] = {}
    for name, label in model.labels.items():
        labels[name] = frozenset(
            i
            for i, s in enumerate(states)
            if s.location in label.locations and s.valuation.satisfies(label.guard)
        )
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
