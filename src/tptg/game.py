"""Explicit finite turn-based stochastic games.

A game is a finite indexed state space partitioned among players, with each
state carrying an ordered list of moves (action label, branch distribution,
price). States with no moves are deadlocks and must carry the ``deadlock``
label; the solver gives them reach probability 0 and infinite expected price.
"""

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ModelError, _gc_paused, summarize

Player = Union[int, str]

DEADLOCK_LABEL = "deadlock"

#: how tightly branch distributions must sum to one
MASS_TOLERANCE = 1e-12


class Move(NamedTuple):
    """One available move: label, branch distribution over states, price.

    `time` carries the delay component of a (delay, action) move and is used
    for deterministic tie-breaking; plain action moves leave it as None. It
    compares and hashes like its plain ``(action, branches, price, time)``
    tuple.
    """

    action: str
    branches: tuple[tuple[int, float], ...]
    price: float = 0.0
    time: int | None = None

    @property
    def label(self) -> str:
        if self.time is None:
            return self.action
        return f"({self.time},{self.action})"

    def sort_key(self) -> tuple[int, str]:
        return (self.time if self.time is not None else 0, self.action)


def parse_move_label(label: str) -> tuple[int | None, str]:
    """Split a ``(delay,action)`` label back into its parts."""
    if label.startswith("(") and label.endswith(")") and "," in label:
        head, _, tail = label[1:-1].partition(",")
        if head.isdigit():
            return int(head), tail
    return None, label


def move_successors(moves: Sequence[Sequence[Move]]):
    """Move-graph edges: positive-branch targets, in move and branch order."""
    return lambda s: [t for m in moves[s] for t, p in m.branches if p > 0]


def strongly_connected(successors: Callable, n: int):
    """Strongly connected components of the graph on the states 0..n-1,
    successors first. `successors(s)` gives the targets of the edges out of
    s, each in 0..n-1. Iterative Tarjan (SIAM J. Comput. 1972) over lists
    indexed by state: roots in ascending order, successors in the order
    given. Yields (a tuple of the states in ascending order, whether the SCC
    has a cycle: two or more states, or a self-loop).
    """
    number = [-1] * n  # -1 until visited, n once in a yielded component
    low = [0] * n
    stack: list[int] = []
    order = itertools.count()

    def visit(s):
        number[s] = low[s] = next(order)
        stack.append(s)
        out = successors(s)
        work.append((s, out, iter(out)))

    for root in range(n):
        if number[root] >= 0:
            continue
        work = []
        visit(root)
        while work:
            s, out, pending = work[-1]
            for t in pending:
                e = number[t]
                if e < 0:
                    visit(t)
                    break
                if e < low[s]:  # t is on the stack, or it would read n
                    low[s] = e
            else:
                work.pop()
                e = low[s]
                if work and e < low[work[-1][0]]:
                    low[work[-1][0]] = e  # the parent's
                if e == number[s]:
                    component = [stack.pop()]
                    while component[-1] != s:
                        component.append(stack.pop())
                    for t in component:
                        number[t] = n
                    yield tuple(sorted(component)), len(component) > 1 or s in out


@dataclass(frozen=True)
class Tsg:
    """Explicit turn-based stochastic game over indexed states.

    `states` holds opaque per-state records (the digital semantics stores its
    own state objects there; imported games just keep indices). `owner[i]`
    is the player controlling state i, `moves[i]` its available moves in a
    fixed deterministic order, and `labels` names sets of states. `origin`
    is ``(model, price)`` on a game `semantics.build` or `semantics.reweigh`
    returned, and None on every other game: no field holds it, so only
    `derive` hands it on, and equality, `repr`, JSON and `replace` ignore it.
    """

    states: tuple
    initial: int
    players: tuple[Player, ...]
    owner: tuple[Player, ...]
    moves: tuple[tuple[Move, ...], ...]
    labels: Mapping[str, frozenset[int]]

    def __len__(self) -> int:
        return len(self.states)

    def available_actions(self, state: int) -> list[str]:
        """Labels of the moves available in `state`, in stored order."""
        if not 0 <= state < len(self.moves):
            raise ModelError(f"state index {state} out of range")
        return [m.label for m in self.moves[state]]

    def move(self, state: int, label: str) -> Move:
        for m in self.moves[state]:
            if m.label == label:
                return m
        raise ModelError(f"action {label!r} not available in state {state}")

    def label_states(self, name: str) -> frozenset[int]:
        if name not in self.labels:
            raise ModelError(f"unknown label {name!r}")
        return self.labels[name]

    @property
    def deadlocks(self) -> frozenset[int]:
        return self.labels.get(DEADLOCK_LABEL, frozenset())

    def player_states(self, player: Player) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.owner) if p == player)

    @property
    def origin(self) -> tuple | None:
        return self.__dict__.get("_origin")

    @property
    @_gc_paused
    def components(self) -> tuple[tuple[tuple[int, ...], bool], ...]:
        """Strongly connected components of the positive-branch graph over all
        states, successors first: (states in ascending order, whether the SCC
        has a cycle). Owners and prices play no part. Computed once, and shared
        with every view `derive` makes; in a view that dropped moves an SCC
        may split, and `cyclic` means it may have a cycle."""
        # [moves, None] until first use, then [None, SCCs]; read in one step
        shared = self.__dict__.setdefault("_components", [self.moves, None])
        moves, components = shared
        if components is None:
            components = tuple(strongly_connected(move_successors(moves), len(moves)))
            shared[:] = None, components
        return components

    def derive(self, origin: tuple | None = None, **changes) -> "Tsg":
        """Copy with other owners or players (`coalition_game`), with moves
        dropped, or with other move prices or branch probabilities, each
        branch's target and positivity kept (`semantics.reweigh`), and no
        other change to branches or move order, sharing the components,
        computed or not: every edge of the copy is an edge of this game, so
        their order stays successors first. The copy's `origin` is `origin`,
        which only `semantics.build` and `semantics.reweigh` give."""
        view = replace(self, **changes)
        view.__dict__["_components"] = self.__dict__.setdefault("_components", [self.moves, None])
        view.__dict__["_origin"] = origin
        return view

    def validate(self) -> list[str]:
        """Check structural invariants, returning one diagnostic per violation."""
        issues: list[str] = []
        n = len(self.states)
        # a state index is an int and not a bool, which Python counts as one
        if not (type(self.initial) is int and 0 <= self.initial < n):
            issues.append(f"initial state {self.initial!r} out of range")
        if len(self.owner) != n:
            issues.append(
                f"partition: owner map covers {len(self.owner)} of {n} states"
            )
        known = set(self.players)
        for i, player in enumerate(self.owner[:n]):
            if player not in known:
                issues.append(f"partition: state {i} owned by unknown player {player!r}")
        if len(self.moves) != n:
            issues.append(f"moves cover {len(self.moves)} of {n} states")
        flagged = self.labels.get(DEADLOCK_LABEL, frozenset())
        for i, moves in enumerate(self.moves[:n]):
            if not moves and i not in flagged:
                issues.append(f"state {i} has no moves and is not flagged as deadlock")
            seen = set()
            for m in moves:
                if m.label in seen:
                    issues.append(f"state {i}: duplicate action label {m.label!r}")
                seen.add(m.label)
                if not 0 <= m.price < math.inf:
                    issues.append(
                        f"state {i}, action {m.label!r}: price {m.price!r} is not a finite number >= 0"
                    )
                mass = 0.0
                for target, prob in m.branches:
                    if not (type(target) is int and 0 <= target < n):
                        issues.append(
                            f"state {i}, action {m.label!r}: branch to invalid state {target!r}"
                        )
                    if not 0.0 <= prob <= 1.0:
                        issues.append(
                            f"state {i}, action {m.label!r}: probability {prob} outside [0,1]"
                        )
                    mass += prob
                if abs(mass - 1.0) > MASS_TOLERANCE:
                    issues.append(
                        f"state {i}, action {m.label!r}: distribution mass {mass!r}"
                    )
        for name, members in self.labels.items():
            for i in members:
                if not 0 <= i < n:
                    issues.append(f"label {name!r} marks invalid state {i}")
        return issues


def coalition_game(game: Tsg, coalition: Iterable[Player]) -> Tsg:
    """Two-player view of `game`: the coalition becomes player 1, the rest player 2."""
    coalition = set(coalition)
    unknown = coalition - set(game.players)
    if unknown:
        raise ModelError(f"coalition contains unknown player(s) {sorted(map(str, unknown))}")
    owner = tuple(1 if p in coalition else 2 for p in game.owner)
    return game.derive(players=(1, 2), owner=owner)


@dataclass
class TsgPath:
    """Alternating state/action sequence through a game, extendable in place."""

    game: Tsg
    states: list[int] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.states:
            self.states = [self.game.initial]

    def __len__(self) -> int:
        """Number of transitions taken."""
        return len(self.actions)

    @property
    def last(self) -> int:
        return self.states[-1]

    def state(self, i: int) -> int:
        return self.states[i]

    def action(self, i: int) -> str:
        return self.actions[i]

    def extend(self, action: str, target: int) -> "TsgPath":
        """Append one transition, checking availability and branch support."""
        move = self.game.move(self.last, action)
        if not any(t == target and p > 0 for t, p in move.branches):
            raise ModelError(
                f"state {target} is not a positive-probability successor of "
                f"state {self.last} under {action!r}"
            )
        self.states.append(target)
        self.actions.append(action)
        return self


def game_stats(game: Tsg) -> dict:
    """Size statistics: states, transitions, branches, per-player state counts."""
    per_player = {str(p): 0 for p in game.players}
    for p in game.owner:
        per_player[str(p)] += 1
    return {
        "states": len(game.states),
        "transitions": sum(len(ms) for ms in game.moves),
        "branches": sum(len(m.branches) for ms in game.moves for m in ms),
        "deadlocks": len(game.deadlocks),
        "player_states": per_player,
    }


def to_json_dict(game: Tsg) -> dict:
    """Serialize to the interchange schema: probabilities as decimal strings,
    "players" only where the owners' first-seen order is not the players'."""
    labels_by_state: list[list[str]] = [[] for _ in game.states]
    for name in sorted(game.labels):
        for i in game.labels[name]:
            labels_by_state[i].append(name)
    states = [{"owner": owner, "labels": names} for owner, names in zip(game.owner, labels_by_state)]
    transitions = [
        {"from": i, "action": m.label, "price": m.price,
         "branches": [{"to": t, "prob": f"{p:.17g}"} for t, p in m.branches]}
        for i, moves in enumerate(game.moves) for m in moves
    ]
    data = {"states": states, "initial": game.initial, "transitions": transitions}
    if tuple(dict.fromkeys(game.owner)) != tuple(game.players):
        data["players"] = list(game.players)
    return data


def to_json(game: Tsg) -> str:
    return json.dumps(to_json_dict(game), indent=1)


def from_json_dict(data: dict) -> Tsg:
    """Import a game in the interchange schema; raises ModelError on a missing
    key, a wrongly typed record, a malformed number or a game that fails
    `Tsg.validate`."""
    try:
        state_records = data["states"]
        initial = data["initial"]
        raw_transitions = data["transitions"]
        n = len(state_records)
        owner = tuple(_player(record["owner"]) for record in state_records)
        labels: dict[str, set[int]] = {}
        for i, record in enumerate(state_records):
            names = record.get("labels", [])
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise TypeError(f"labels of state {i} must be a list of strings, not {names!r}")
            for name in names:
                labels.setdefault(name, set()).add(i)
        moves: list[list[Move]] = [[] for _ in range(n)]
        for entry in raw_transitions:
            source = entry["from"]
            if not (type(source) is int and 0 <= source < n):
                raise ModelError(f"game JSON has a transition from invalid state {source!r}")
            time, action = parse_move_label(entry["action"])
            branches = tuple((b["to"], _number(b["prob"])) for b in entry["branches"])
            moves[source].append(Move(action, branches, _number(entry.get("price", 0.0)), time))
        players = data.get("players", list(dict.fromkeys(owner)))
        if not isinstance(players, list):
            raise TypeError(f"players must be a list, not {players!r}")
        players = tuple(_player(p) for p in players)
    except KeyError as missing:
        raise ModelError(f"game JSON is missing key {missing}") from None
    except (TypeError, AttributeError) as wrong:
        raise ModelError(f"game JSON has a wrongly typed record: {wrong}") from None
    game = Tsg(
        states=tuple(range(n)),
        initial=initial,
        players=players,
        owner=owner,
        moves=tuple(tuple(ms) for ms in moves),
        labels={name: frozenset(members) for name, members in labels.items()},
    )
    issues = game.validate()
    if issues:
        raise ModelError(f"game JSON fails validation: {summarize(issues)}")
    return game


def _player(value) -> Player:
    if type(value) not in (str, int):  # nor a bool
        raise TypeError(f"an owner or player must be a string or an integer, not {value!r}")
    return value


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ModelError(f"game JSON has a malformed number {value!r}") from None


def from_json(text: str) -> Tsg:
    return from_json_dict(json.loads(text))


def make_game(
    moves: Sequence[Sequence[Move]],
    owner: Sequence[Player],
    labels: Mapping[str, Iterable[int]] | None = None,
    initial: int = 0,
    players: Sequence[Player] | None = None,
) -> Tsg:
    """Assemble a game from per-state move lists; convenience for tests and tools.
    States without moves join the ``deadlock`` label."""
    n = len(moves)
    label_sets = {name: frozenset(v) for name, v in (labels or {}).items()}
    silent = frozenset(i for i in range(n) if not moves[i])
    if silent:
        label_sets[DEADLOCK_LABEL] = label_sets.get(DEADLOCK_LABEL, frozenset()) | silent
    return Tsg(
        states=tuple(range(n)),
        initial=initial,
        players=tuple(players) if players is not None else tuple(dict.fromkeys(owner)),
        owner=tuple(owner),
        moves=tuple(tuple(ms) for ms in moves),
        labels=label_sets,
    )
