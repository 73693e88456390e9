"""Timed game models: locations partitioned among players, guarded
probabilistic edges over clocks, and named price structures.

Probabilities are exact rationals here; conversion to floating point happens
once, when the explicit game is built. All clock constraints are closed and
diagonal-free by construction of :class:`~tptg.clocks.ClockConstraint`.
"""

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .clocks import GE, LE, TRUE, ClockConstraint, clock_le
from .errors import ModelError

OwnerFn = Union[Mapping[tuple[str, str], str], Callable[[str, str], str]]

#: separator used for product location names
JOIN = "."


@dataclass(frozen=True)
class ProbBranch:
    """One outcome of a probabilistic edge: probability, clock resets, target."""

    prob: Fraction
    resets: frozenset[str]
    target: str

    def __post_init__(self):
        if not isinstance(self.prob, Fraction):
            object.__setattr__(self, "prob", Fraction(self.prob))


Distribution = tuple[ProbBranch, ...]


@dataclass(frozen=True)
class PriceStructure:
    """Location rates (accumulate with time) and per-edge action prices."""

    rates: Mapping[str, int] = field(default_factory=dict)
    action_prices: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def rate(self, location: str) -> int:
        return self.rates.get(location, 0)

    def action_price(self, location: str, action: str) -> int:
        return self.action_prices.get((location, action), 0)


@dataclass(frozen=True)
class StateLabel:
    """Predicate naming target states: a location set plus an optional clock guard."""

    locations: frozenset[str]
    guard: ClockConstraint = TRUE


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.where}: {self.message}"


def errors_only(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity == "error"]


@dataclass(frozen=True)
class Tptg:
    """A turn-based probabilistic timed game.

    `owner` partitions locations among players; `enabling` and `transitions`
    share the same (location, action) domain. `clock_caps` registers observer
    clocks (added e.g. by :func:`with_time_bound`) that are exempt from the
    bounded-invariant requirement and saturate at the registered constant
    plus one.
    """

    players: tuple[str, ...]
    locations: tuple[str, ...]
    initial: str
    clocks: tuple[str, ...]
    actions: tuple[str, ...]
    owner: Mapping[str, str]
    invariants: Mapping[str, ClockConstraint]
    enabling: Mapping[tuple[str, str], ClockConstraint]
    transitions: Mapping[tuple[str, str], Distribution]
    prices: Mapping[str, PriceStructure] = field(default_factory=dict)
    labels: Mapping[str, StateLabel] = field(default_factory=dict)
    clock_caps: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        locations = set(self.locations)
        clocks = set(self.clocks)
        if self.initial not in locations:
            raise ModelError(f"initial location {self.initial!r} is not a location")
        for loc in self.locations:
            if loc not in self.invariants:
                raise ModelError(f"location {loc!r} has no invariant")
        for (loc, act), dist in self.transitions.items():
            if loc not in locations:
                raise ModelError(f"edge on unknown location {loc!r}")
            if act not in self.actions:
                raise ModelError(f"edge on undeclared action {act!r}")
            for branch in dist:
                if branch.target not in locations:
                    raise ModelError(
                        f"edge ({loc!r}, {act!r}) targets unknown location {branch.target!r}"
                    )
                bad = branch.resets - clocks
                if bad:
                    raise ModelError(
                        f"edge ({loc!r}, {act!r}) resets unknown clock(s) {sorted(bad)}"
                    )
        for name, label in self.labels.items():
            missing = label.locations - locations
            if missing:
                raise ModelError(f"label {name!r} names unknown location(s) {sorted(missing)}")

    def edge_actions(self, location: str) -> list[str]:
        return [a for (l, a) in self.transitions if l == location]


def max_constants(model: Tptg) -> dict[str, int]:
    """Largest constant each clock is compared against; 0 if never compared.

    Registered observer-clock caps participate so that never-guarded bound
    clocks still saturate at a useful point.
    """
    k = {x: 0 for x in model.clocks}
    constraints = list(model.invariants.values()) + list(model.enabling.values())
    for constraint in constraints:
        for atom in constraint.atoms:
            if atom.bound > k.get(atom.clock, 0):
                k[atom.clock] = atom.bound
    for clock, cap in model.clock_caps.items():
        if cap > k.get(clock, 0):
            k[clock] = cap
    return k


def validate_assumptions(model: Tptg) -> list[Diagnostic]:
    """Check the digital-semantics prerequisites.

    Errors: some clock is not upper-bounded in some invariant (observer
    clocks registered in `clock_caps` are exempt), a non-closed or diagonal
    atom slipped in, a distribution is sub- or super-stochastic, or the
    enabling/transition domains disagree. A structural loop that never
    resets a clock and has no positive lower-bound guard yields a warning
    (possible time-convergent behaviour), not an error.
    """
    diags: list[Diagnostic] = []
    bound_clocks = [x for x in model.clocks if x not in model.clock_caps]
    for loc in model.locations:
        invariant = model.invariants[loc]
        for clock in bound_clocks:
            if invariant.upper_bound(clock) is None:
                diags.append(
                    Diagnostic(
                        "error",
                        f"location {loc!r}",
                        f"unbounded invariant: no upper bound on clock {clock!r}",
                    )
                )
    for where, constraint in list(model.invariants.items()) + list(model.enabling.items()):
        for atom in constraint.atoms:
            if atom.op not in (LE, GE):
                diags.append(
                    Diagnostic("error", f"{where}", f"non-closed atom {atom}")
                )
            if atom.clock not in model.clocks:
                diags.append(
                    Diagnostic("error", f"{where}", f"atom on unknown clock {atom.clock!r}")
                )
    for key in model.enabling:
        if key not in model.transitions:
            diags.append(
                Diagnostic("error", f"edge {key}", "enabling condition without distribution")
            )
    for key, dist in model.transitions.items():
        if key not in model.enabling:
            diags.append(
                Diagnostic("error", f"edge {key}", "distribution without enabling condition")
            )
        mass = sum((b.prob for b in dist), Fraction(0))
        if any(b.prob <= 0 or b.prob > 1 for b in dist):
            diags.append(
                Diagnostic("error", f"edge {key}", "branch probability outside (0,1]")
            )
        if mass != 1:
            diags.append(Diagnostic("error", f"edge {key}", f"distribution mass {mass}"))
    owned = set(model.owner)
    for loc in model.locations:
        if loc not in model.owner:
            diags.append(Diagnostic("error", f"location {loc!r}", "no owner assigned"))
        elif model.owner[loc] not in model.players:
            diags.append(
                Diagnostic(
                    "error", f"location {loc!r}", f"owner {model.owner[loc]!r} is not a player"
                )
            )
    for loc in owned - set(model.locations):
        diags.append(Diagnostic("error", f"location {loc!r}", "owner entry for unknown location"))
    zero = {x: 0 for x in model.clocks}
    if not model.invariants[model.initial].satisfied_by(zero):
        diags.append(
            Diagnostic(
                "error",
                f"location {model.initial!r}",
                "initial location's invariant excludes the all-zero valuation",
            )
        )
    diags.extend(_zeno_warning(model))
    return diags


def _zeno_warning(model: Tptg) -> list[Diagnostic]:
    # Conservative check: a location cycle whose edges neither reset a clock
    # nor require a positive lower bound can be traversed without time ever
    # advancing.
    successors: dict[str, set[str]] = {loc: set() for loc in model.locations}
    for (loc, act), dist in model.transitions.items():
        guard = model.enabling.get((loc, act), TRUE)
        delayed = any(a.op == GE and a.bound >= 1 for a in guard.atoms)
        if delayed:
            continue
        for branch in dist:
            if not branch.resets:
                successors[loc].add(branch.target)

    visiting: dict[str, int] = {}  # 0 = on stack, 1 = done
    order: list[str] = []

    def has_cycle(start: str) -> bool:
        stack = [(start, iter(successors[start]))]
        visiting[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if visiting.get(nxt) == 0:
                    return True
                if nxt not in visiting:
                    visiting[nxt] = 0
                    stack.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
            if not advanced:
                visiting[node] = 1
                stack.pop()
        return False

    for loc in model.locations:
        if loc not in visiting and has_cycle(loc):
            return [
                Diagnostic(
                    "warning",
                    "model",
                    "a structural cycle resets no clock and has no positive "
                    "lower-bound guard; time-convergent strategies may exist",
                )
            ]
    return []


def compose(a: Tptg, b: Tptg, owner: OwnerFn, shared_clocks: Iterable[str] = ()) -> Tptg:
    """Parallel composition over the reachable location product.

    Product locations are explored breadth-first from the pair of initial
    locations, so only pairs reachable through product edges exist.
    Actions named in both alphabets synchronize (conjoined enabling, product
    distributions, unioned resets, summed action prices); the rest
    interleave. Location rates add per price structure. The owner of every
    product location comes from `owner`; components' own partitions are
    ignored. Clocks common to both sides must be listed in `shared_clocks`.
    A label defined by both sides must carry the same clock guard in each.
    """
    shared_clocks = frozenset(shared_clocks)
    overlap = set(a.clocks) & set(b.clocks)
    if not overlap <= shared_clocks:
        raise ModelError(
            f"clocks {sorted(overlap - shared_clocks)} appear in both components "
            f"but are not declared shared"
        )
    if callable(owner):
        owner_of = owner
    else:
        mapping = owner

        def owner_of(la: str, lb: str) -> str:
            try:
                return mapping[(la, lb)]
            except KeyError:
                raise ModelError(f"owner map does not cover product location ({la!r}, {lb!r})")

    players = tuple(dict.fromkeys(a.players + b.players))
    clocks = tuple(dict.fromkeys(a.clocks + b.clocks))
    actions = tuple(dict.fromkeys(a.actions + b.actions))
    shared_actions = set(a.actions) & set(b.actions)
    price_names = tuple(dict.fromkeys(tuple(a.prices) + tuple(b.prices)))

    edges_a: dict[str, list[str]] = {}
    for (la, act) in a.transitions:
        edges_a.setdefault(la, []).append(act)
    edges_b: dict[str, list[str]] = {}
    for (lb, act) in b.transitions:
        edges_b.setdefault(lb, []).append(act)

    # product name of every pair discovered so far, in BFS order, and back
    names: dict[tuple[str, str], str] = {}
    pairs: dict[str, tuple[str, str]] = {}
    queue: deque[tuple[str, str]] = deque()

    def visit(la: str, lb: str) -> str:
        loc = names.get((la, lb))
        if loc is None:
            loc = names[(la, lb)] = f"{la}{JOIN}{lb}"
            clash = pairs.setdefault(loc, (la, lb))
            if clash != (la, lb):
                raise ModelError(
                    f"product locations {clash!r} and {(la, lb)!r} are both named {loc!r}"
                )
            queue.append((la, lb))
        return loc

    invariants: dict[str, ClockConstraint] = {}
    owner_map: dict[str, str] = {}
    enabling: dict[tuple[str, str], ClockConstraint] = {}
    transitions: dict[tuple[str, str], Distribution] = {}
    rates: dict[str, dict[str, int]] = {n: {} for n in price_names}
    action_prices: dict[str, dict[tuple[str, str], int]] = {n: {} for n in price_names}

    def put(loc: str, act: str, guard: ClockConstraint, dist: Distribution, prices: dict[str, int]):
        enabling[(loc, act)] = guard
        transitions[(loc, act)] = dist
        for struct, value in prices.items():
            if value:
                action_prices[struct][(loc, act)] = value

    initial = visit(a.initial, b.initial)
    while queue:
        la, lb = queue.popleft()
        loc = names[(la, lb)]
        invariants[loc] = a.invariants[la].conjoin(b.invariants[lb])
        player = owner_of(la, lb)
        if player is None or player not in players:
            raise ModelError(
                f"owner for product location ({la!r}, {lb!r}) is {player!r}, "
                f"expected one of {list(players)}"
            )
        owner_map[loc] = player
        for n in price_names:
            rate = sum(c.prices[n].rate(l) for c, l in ((a, la), (b, lb)) if n in c.prices)
            if rate:
                rates[n][loc] = rate

        for act in edges_a.get(la, []):
            prices_a = {n: a.prices[n].action_price(la, act) for n in a.prices}
            if act in shared_actions:
                if (lb, act) not in b.transitions:
                    continue  # partner not ready: synchronization blocks
                guard = a.enabling[(la, act)].conjoin(b.enabling[(lb, act)])
                dist = tuple(
                    ProbBranch(
                        ba.prob * bb.prob,
                        ba.resets | bb.resets,
                        visit(ba.target, bb.target),
                    )
                    for ba in a.transitions[(la, act)]
                    for bb in b.transitions[(lb, act)]
                )
                prices = dict(prices_a)
                for n in b.prices:
                    prices[n] = prices.get(n, 0) + b.prices[n].action_price(lb, act)
                put(loc, act, guard, dist, prices)
            else:
                dist = tuple(
                    ProbBranch(ba.prob, ba.resets, visit(ba.target, lb))
                    for ba in a.transitions[(la, act)]
                )
                put(loc, act, a.enabling[(la, act)], dist, prices_a)
        for act in edges_b.get(lb, []):
            if act in shared_actions:
                continue  # handled from a's side
            dist = tuple(
                ProbBranch(bb.prob, bb.resets, visit(la, bb.target))
                for bb in b.transitions[(lb, act)]
            )
            prices = {n: b.prices[n].action_price(lb, act) for n in b.prices}
            put(loc, act, b.enabling[(lb, act)], dist, prices)

    labels: dict[str, StateLabel] = {}
    for side, source in enumerate((a, b)):
        for label_name, label in source.labels.items():
            extent = frozenset(
                loc for pair, loc in names.items() if pair[side] in label.locations
            )
            if label_name in labels:
                if set(labels[label_name].guard.atoms) != set(label.guard.atoms):
                    raise ModelError(
                        f"label {label_name!r} has different clock guards in the two "
                        f"components ({labels[label_name].guard} vs {label.guard})"
                    )
                extent |= labels[label_name].locations
            labels[label_name] = StateLabel(extent, label.guard)

    caps = dict(a.clock_caps)
    for clock, cap in b.clock_caps.items():
        caps[clock] = max(cap, caps.get(clock, 0))

    return Tptg(
        players=players,
        locations=tuple(names.values()),
        initial=initial,
        clocks=clocks,
        actions=actions,
        owner=owner_map,
        invariants=invariants,
        enabling=enabling,
        transitions=transitions,
        prices={
            n: PriceStructure(rates=rates[n], action_prices=action_prices[n])
            for n in price_names
        },
        labels=labels,
        clock_caps=caps,
    )


def with_time_bound(model: Tptg, target: str, bound: int) -> tuple[Tptg, str]:
    """Time-bounded variant of a reachability target.

    Adds a fresh, never-reset observer clock that saturates just past
    `bound` and a new label restricting `target` to states reached while the
    observer is still within the bound. Invariants and edges are untouched,
    so the underlying behaviour is identical.
    """
    if bound < 0:
        raise ModelError("time bound must be non-negative")
    if target not in model.labels:
        raise ModelError(f"unknown label {target!r}")
    clock = "_elapsed"
    while clock in model.clocks:
        clock += "_"
    old = model.labels[target]
    new_label = f"{target}_by_{bound}"
    labels = dict(model.labels)
    labels[new_label] = StateLabel(old.locations, old.guard.conjoin(clock_le(clock, bound)))
    caps = dict(model.clock_caps)
    caps[clock] = bound
    bounded = replace(
        model,
        clocks=model.clocks + (clock,),
        labels=labels,
        clock_caps=caps,
    )
    return bounded, new_label
