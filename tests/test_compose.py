"""Differential tests of the reachable-product composer against the eager
cross-product composer kept in `eager_compose.py`."""

import math
import random
from collections import deque
from dataclasses import replace

import pytest

import tptg
from tptg import Atom, ClockConstraint, ModelError, casestudies, compose, max_constants

from eager_compose import eager_compose
from gamegen import random_tptg


def _reachable(model) -> set[str]:
    successors: dict[str, list[str]] = {}
    for (loc, _), dist in model.transitions.items():
        successors.setdefault(loc, []).extend(b.target for b in dist)
    seen = {model.initial}
    queue = deque([model.initial])
    while queue:
        for target in successors.get(queue.popleft(), []):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def _assert_restriction(product, eager):
    """`product` is `eager` restricted to the locations reachable in it."""
    keep = _reachable(eager)
    assert set(product.locations) == keep
    assert len(product.locations) == len(keep)
    assert product.initial == eager.initial
    for field in ("players", "clocks", "actions"):
        assert getattr(product, field) == getattr(eager, field), field
    assert product.invariants == {l: eager.invariants[l] for l in keep}
    assert product.owner == {l: eager.owner[l] for l in keep}
    assert product.enabling == {k: g for k, g in eager.enabling.items() if k[0] in keep}
    assert product.transitions == {k: d for k, d in eager.transitions.items() if k[0] in keep}
    assert list(product.prices) == list(eager.prices)
    for name, structure in eager.prices.items():
        assert product.prices[name].rates == {
            l: r for l, r in structure.rates.items() if l in keep
        }
        assert product.prices[name].action_prices == {
            k: p for k, p in structure.action_prices.items() if k[0] in keep
        }
    assert list(product.labels) == list(eager.labels)
    for name, label in eager.labels.items():
        assert product.labels[name] == label & keep


def _assert_same_game(left, right):
    assert left.states == right.states
    assert left.owner == right.owner
    assert left.moves == right.moves
    assert left.labels == right.labels


def _outcome(solver, game, direction):
    try:
        return solver(game, "goal", direction).initial_value
    except ModelError as exc:
        return str(exc)


def _renamed(model, tag: str, actions: dict[str, str]):
    """`model` with locations prefixed by `tag` and actions renamed."""
    loc = lambda l: f"{tag}{l}"
    edge = lambda key: (loc(key[0]), actions.get(key[1], key[1]))
    return replace(
        model,
        locations=tuple(loc(l) for l in model.locations),
        initial=loc(model.initial),
        actions=tuple(dict.fromkeys(actions.get(a, a) for a in model.actions)),
        owner={loc(l): p for l, p in model.owner.items()},
        invariants={loc(l): c for l, c in model.invariants.items()},
        enabling={edge(k): g for k, g in model.enabling.items()},
        transitions={
            edge(k): tuple(replace(b, target=loc(b.target)) for b in dist)
            for k, dist in model.transitions.items()
        },
        prices={
            n: replace(
                s,
                rates={loc(l): r for l, r in s.rates.items()},
                action_prices={edge(k): p for k, p in s.action_prices.items()},
            )
            for n, s in model.prices.items()
        },
        labels={
            n: frozenset(loc(l) for l in lab)
            for n, lab in model.labels.items()
        },
    )


def _raise_ceiling(model, rng):
    """Same behaviour, but one edge compares a clock against a constant no
    invariant allows it to reach, which raises that clock's ceiling."""
    key = rng.choice(sorted(model.enabling))
    clock = rng.choice(model.clocks)
    loose = model.enabling[key].conjoin(ClockConstraint((Atom(clock, "<=", 5),)))
    return replace(model, enabling={**model.enabling, key: loose})


def _random_pair(rng):
    a = random_tptg(rng)
    # a renamed action makes some edges interleave instead of synchronize
    b = _renamed(random_tptg(rng), "m", rng.choice(({}, {"b": "c"}, {"a": "c", "b": "d"})))
    if rng.random() < 0.5:
        b = _raise_ceiling(b, rng)
    shared = set(a.clocks) & set(b.clocks)
    owner = lambda la, lb: a.owner[la] if b.owner[lb] == "one" else "two"
    return a, b, owner, shared


def test_reachable_product_matches_eager_product_on_random_pairs():
    rng = random.Random(31)
    ceilings_differ = ceilings_agree = 0
    for _ in range(60):
        a, b, owner, shared = _random_pair(rng)
        product = compose(a, b, shared)
        eager = eager_compose(a, b, owner, shared)
        assert product.owner == {}
        product = replace(product, owner={l: eager.owner[l] for l in product.locations})
        _assert_restriction(product, eager)

        game = tptg.build(product, price="run")
        reference = tptg.build(eager, price="run")
        if max_constants(product) == max_constants(eager):
            ceilings_agree += 1
            _assert_same_game(game, reference)
            continue
        ceilings_differ += 1
        for solver in (tptg.prob_reach, tptg.expected_price):
            for direction in ("maxmin", "minmax"):
                got = _outcome(solver, game, direction)
                want = _outcome(solver, reference, direction)
                if isinstance(want, str) or math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-6)
    # both comparisons must actually have run
    assert ceilings_agree and ceilings_differ


CASE_STUDIES = {
    **{f"taskgraph-{k}": lambda k=k: casestudies.taskgraph_source(k, k, "1/2") for k in range(3)},
    **{f"nonrep-{v}": lambda v=v: casestudies.nonrepudiation_source(v, p="1/2")
       for v in casestudies.NONREP_VARIANTS},
}


@pytest.mark.parametrize("make_source", CASE_STUDIES.values(), ids=CASE_STUDIES.keys())
def test_case_studies_build_the_same_games_as_eager_composition(make_source, monkeypatch):
    source = make_source()
    model = tptg.to_tptg(source)
    monkeypatch.setattr(
        tptg.elaborate, "compose",
        lambda a, b, shared_clocks=(): eager_compose(a, b, lambda la, lb: a.players[0], shared_clocks),
    )
    eager = tptg.to_tptg(source)
    assert len(model.locations) < len(eager.locations)
    assert max_constants(model) == max_constants(eager)
    game = tptg.build(model)
    reference = tptg.build(eager)
    _assert_same_game(game, reference)
    for price in model.prices:
        _assert_same_game(
            tptg.reweigh(game, model, price),
            tptg.reweigh(reference, eager, price),
        )


def test_taskgraph_elaborates_only_reachable_locations():
    sizes = [len(tptg.gen_taskgraph(k, k, "1/2").locations) for k in range(4)]
    assert sizes == [143, 515, 1123, 1967]
