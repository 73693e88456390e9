"""Timed game models: locations partitioned among players, guarded
probabilistic edges over clocks, and named price structures.

Probabilities are exact rationals here; conversion to floating point happens
once, when the explicit game is built. All clock constraints are closed and
diagonal-free by construction of :class:`~tptg.clocks.ClockConstraint`.
"""

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .clocks import GE, TRUE, ClockConstraint
from .errors import ModelError
from .game import strongly_connected

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
    share the same (location, action) domain. A label names the set of
    locations whose states it marks.
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
    labels: Mapping[str, frozenset[str]] = field(default_factory=dict)
    #: the probability-factor record `to_tptg` fills: for each distribution
    #: that reads a probability constant, each branch's factors, and the
    #: parameters, constants declared with a value other than an integer,
    #: which only probabilities read (see `instantiate`); `compose` and
    #: hand-built models carry none
    factors: Mapping[tuple[str, str], tuple] = field(default_factory=dict, compare=False, repr=False)
    parameters: frozenset[str] = field(default=frozenset(), compare=False, repr=False)

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
            missing = label - locations
            if missing:
                raise ModelError(f"label {name!r} names unknown location(s) {sorted(missing)}")


def max_constants(model: Tptg) -> dict[str, int]:
    """Largest constant each clock is compared against; 0 if never compared."""
    k = {x: 0 for x in model.clocks}
    constraints = list(model.invariants.values()) + list(model.enabling.values())
    for constraint in constraints:
        for atom in constraint.atoms:
            if atom.bound > k.get(atom.clock, 0):
                k[atom.clock] = atom.bound
    return k


def validate_assumptions(model: Tptg) -> list[Diagnostic]:
    """Check the digital-semantics prerequisites.

    Errors: some clock is not upper-bounded in some invariant, an invariant
    or guard has an atom on an unknown clock, a distribution is sub- or
    super-stochastic, or the enabling/transition domains disagree. A
    structural loop that never resets a clock and has no positive
    lower-bound guard yields a warning (possible time-convergent behaviour),
    not an error.
    """
    diags: list[Diagnostic] = []
    for loc in model.locations:
        invariant = model.invariants[loc]
        for clock in model.clocks:
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
        # a lone branch's mass is its probability, with no Fraction sum
        mass = dist[0].prob if len(dist) == 1 else sum((b.prob for b in dist), Fraction(0))
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
    # advancing. Such a cycle exists iff that edge graph has a cyclic SCC.
    index = {loc: i for i, loc in enumerate(model.locations)}  # the search's numbering
    successors: list[set[int]] = [set() for _ in model.locations]
    for (loc, act), dist in model.transitions.items():
        guard = model.enabling.get((loc, act), TRUE)
        delayed = any(a.op == GE and a.bound >= 1 for a in guard.atoms)
        if delayed:
            continue
        for branch in dist:
            if not branch.resets:
                successors[index[loc]].add(index[branch.target])

    if any(cyclic for _, cyclic in strongly_connected(successors.__getitem__, len(successors))):
        return [
            Diagnostic(
                "warning",
                "model",
                "a structural cycle resets no clock and has no positive "
                "lower-bound guard; time-convergent strategies may exist",
            )
        ]
    return []


def compose(a: Tptg, b: Tptg, shared_clocks: Iterable[str] = ()) -> Tptg:
    """Parallel composition over the reachable location product.

    Product locations are explored breadth-first from the pair of initial
    locations, so only pairs reachable through product edges exist.
    Actions named in both alphabets synchronize (conjoined enabling, product
    distributions, unioned resets, summed action prices); the rest
    interleave. Location rates add per price structure. The product's owner
    map is empty: components' own partitions are ignored, and the caller
    assigns owners. Clocks common to both sides must be listed in
    `shared_clocks`.
    """
    shared_clocks = frozenset(shared_clocks)
    overlap = set(a.clocks) & set(b.clocks)
    if not overlap <= shared_clocks:
        raise ModelError(
            f"clocks {sorted(overlap - shared_clocks)} appear in both components "
            f"but are not declared shared"
        )
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

    labels: dict[str, frozenset[str]] = {}
    for side, source in enumerate((a, b)):
        for label_name, label in source.labels.items():
            extent = frozenset(loc for pair, loc in names.items() if pair[side] in label)
            labels[label_name] = labels.get(label_name, frozenset()) | extent

    return Tptg(
        players=players,
        locations=tuple(names.values()),
        initial=initial,
        clocks=clocks,
        actions=actions,
        owner={},
        invariants=invariants,
        enabling=enabling,
        transitions=transitions,
        prices={
            n: PriceStructure(rates=rates[n], action_prices=action_prices[n])
            for n in price_names
        },
        labels=labels,
    )

