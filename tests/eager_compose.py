"""Reference parallel composition over the full location cross product.

This is the composer the library used before it explored only the product
locations reachable from the initial pair. It is kept here, unchanged in
behaviour, as a differential oracle for :func:`tptg.model.compose`: on the
locations the reachable composer emits, both must agree on everything.
"""

from typing import Callable, Iterable, Mapping, Union

from tptg.clocks import ClockConstraint
from tptg.errors import ModelError
from tptg.model import (
    JOIN,
    Distribution,
    PriceStructure,
    ProbBranch,
    Tptg,
)

OwnerFn = Union[Mapping[tuple[str, str], str], Callable[[str, str], str]]


def eager_compose(a: Tptg, b: Tptg, owner: OwnerFn, shared_clocks: Iterable[str] = ()) -> Tptg:
    """Parallel composition over the full location cross product.

    Actions named in both alphabets synchronize (conjoined enabling, product
    distributions, unioned resets, summed action prices); the rest
    interleave. Location rates add per price structure. The owner of every
    product location comes from `owner`; components' own partitions are
    ignored. Clocks common to both sides must be listed in `shared_clocks`.
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

    def name(la: str, lb: str) -> str:
        return f"{la}{JOIN}{lb}"

    locations = tuple(name(la, lb) for la in a.locations for lb in b.locations)
    invariants = {
        name(la, lb): a.invariants[la].conjoin(b.invariants[lb])
        for la in a.locations
        for lb in b.locations
    }
    owner_map: dict[str, str] = {}
    for la in a.locations:
        for lb in b.locations:
            player = owner_of(la, lb)
            if player is None or player not in players:
                raise ModelError(
                    f"owner for product location ({la!r}, {lb!r}) is {player!r}, "
                    f"expected one of {list(players)}"
                )
            owner_map[name(la, lb)] = player

    enabling: dict[tuple[str, str], ClockConstraint] = {}
    transitions: dict[tuple[str, str], Distribution] = {}
    price_names = tuple(dict.fromkeys(tuple(a.prices) + tuple(b.prices)))
    action_prices: dict[str, dict[tuple[str, str], int]] = {n: {} for n in price_names}

    def put(loc: str, act: str, guard: ClockConstraint, dist: Distribution, prices: dict[str, int]):
        enabling[(loc, act)] = guard
        transitions[(loc, act)] = dist
        for struct, value in prices.items():
            if value:
                action_prices[struct][(loc, act)] = value

    edges_a: dict[str, list[str]] = {}
    for (la, act) in a.transitions:
        edges_a.setdefault(la, []).append(act)
    edges_b: dict[str, list[str]] = {}
    for (lb, act) in b.transitions:
        edges_b.setdefault(lb, []).append(act)

    for la in a.locations:
        for lb in b.locations:
            loc = name(la, lb)
            for act in edges_a.get(la, []):
                prices_a = {
                    n: a.prices[n].action_price(la, act) for n in a.prices
                }
                if act in shared_actions:
                    if (lb, act) not in b.transitions:
                        continue  # partner not ready: synchronization blocks
                    guard = a.enabling[(la, act)].conjoin(b.enabling[(lb, act)])
                    dist = tuple(
                        ProbBranch(
                            ba.prob * bb.prob,
                            ba.resets | bb.resets,
                            name(ba.target, bb.target),
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
                        ProbBranch(ba.prob, ba.resets, name(ba.target, lb))
                        for ba in a.transitions[(la, act)]
                    )
                    put(loc, act, a.enabling[(la, act)], dist, prices_a)
            for act in edges_b.get(lb, []):
                if act in shared_actions:
                    continue  # handled from a's side
                dist = tuple(
                    ProbBranch(bb.prob, bb.resets, name(la, bb.target))
                    for bb in b.transitions[(lb, act)]
                )
                prices = {n: b.prices[n].action_price(lb, act) for n in b.prices}
                put(loc, act, b.enabling[(lb, act)], dist, prices)

    prices = {}
    for n in price_names:
        rates = {}
        for la in a.locations:
            for lb in b.locations:
                rate = 0
                if n in a.prices:
                    rate += a.prices[n].rate(la)
                if n in b.prices:
                    rate += b.prices[n].rate(lb)
                if rate:
                    rates[name(la, lb)] = rate
        prices[n] = PriceStructure(rates=rates, action_prices=action_prices[n])

    labels: dict[str, frozenset[str]] = {}
    for source, lift in ((a, lambda l: [name(l, lb) for lb in b.locations]),
                         (b, lambda l: [name(la, l) for la in a.locations])):
        for label_name, label in source.labels.items():
            extent = set()
            for l in label:
                extent.update(lift(l))
            if label_name in labels:
                extent |= labels[label_name]
            labels[label_name] = frozenset(extent)

    return Tptg(
        players=players,
        locations=locations,
        initial=name(a.initial, b.initial),
        clocks=clocks,
        actions=actions,
        owner=owner_map,
        invariants=invariants,
        enabling=enabling,
        transitions=transitions,
        prices=prices,
        labels=labels,
    )
