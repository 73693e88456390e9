"""The list-indexed SCC search against the dict-based one kept in
`retired_scc.py`: the same components, in the same order, with the same
`cyclic` flags, on every graph the package searches: built games, the
active states a solve re-splits, the zero-delay graph of the budget
induction and the location graph of the time-convergence check."""

import importlib.resources
import random
from fractions import Fraction

import pytest

import tptg
from tptg.clocks import GE, TRUE
from tptg.game import move_successors, strongly_connected
from tptg.solver import Objective, time_bounded

import retired_scc
from gamegen import random_game, random_tptg, reshaped
from test_cli import ZERO_DELAY_CYCLE
from test_model import two_location_cycle


def _retired(successors, nodes) -> list:
    return [(list(members), cyclic) for members, cyclic in retired_scc.strongly_connected(successors, nodes)]


def _found(successors, n: int) -> list:
    return [(list(members), cyclic) for members, cyclic in strongly_connected(successors, n)]


def _shipped_models() -> dict:
    fig1 = (importlib.resources.files("tptg") / "models" / "fig1.tptg").read_text(encoding="utf-8")
    models = {
        "fig1": tptg.to_tptg(tptg.parse(fig1)),
        "zero-delay-cycle": tptg.to_tptg(tptg.parse(ZERO_DELAY_CYCLE)),
    }
    for k in (0, 1, 2):
        models[f"taskgraph-{k}-{k}"] = tptg.gen_taskgraph(k, k, Fraction(1, 2))
    for variant in ("honest", "malicious1", "malicious2"):
        models[variant] = tptg.gen_nonrepudiation(variant, p=Fraction(1, 10))
    return models


SHIPPED = _shipped_models()


def _random_games():
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(40):
            game = random_game(rng, max_states=12, max_actions=3, acyclic=rng.random() < 0.3)
            yield game
            yield reshaped(rng, game)  # zero-probability and split branches


def _instant(game):
    """The zero-delay graph `time_bounded` searches for a cycle."""
    return move_successors([[m for m in ms if m.time == 0] for ms in game.moves])


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_games_decompose_as_the_retired_search(name):
    game = tptg.build(SHIPPED[name], price=None)
    n = len(game.states)
    expected = _retired(move_successors(game.moves), range(n))
    assert [(list(states), cyclic) for states, cyclic in game.components] == expected
    assert _found(_instant(game), n) == _retired(_instant(game), range(n))


def test_random_games_decompose_as_the_retired_search():
    cyclic = 0
    for game in _random_games():
        n = len(game.states)
        expected = _retired(move_successors(game.moves), range(n))
        assert [(list(states), c) for states, c in game.components] == expected
        cyclic += any(c for _, c in expected)
    assert cyclic > 100


def test_random_graphs_decompose_as_the_retired_search():
    # repeated edges, self-loops and long paths that the games rarely have
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 40)
        edges = [[rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 2, 3)))] for _ in range(n)]
        assert _found(edges.__getitem__, n) == _retired(edges.__getitem__, range(n))


def test_the_zero_delay_cycle_is_found_as_the_retired_search_finds_it():
    game = tptg.build(SHIPPED["zero-delay-cycle"])
    found = _found(_instant(game), len(game.states))
    assert found == _retired(_instant(game), range(len(game.states)))
    assert any(cyclic for _, cyclic in found)
    view = tptg.coalition_game(game, ["a"])
    assert time_bounded(view, Objective("prob-reach", "maxmin", "done"), 3) is None


def _iterate_searches(solve) -> list:
    """(moves, active states, the components `_iterate` re-split them into)
    for each `_iterate` call of `solve()`."""
    calls = []
    iterate = tptg.solver._iterate

    def recorded(moves, values, active, *args):
        found = []

        def search(successors, n):
            found.extend(strongly_connected(successors, n))
            return iter(found)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tptg.solver, "strongly_connected", search)
            result = iterate(moves, values, active, *args)
        calls.append((moves, list(active), [([active[i] for i in members], c) for members, c in found]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tptg.solver, "_iterate", recorded)
        solve()
    return calls


def test_the_active_states_a_solve_resplits_decompose_as_the_retired_search():
    games = [g for g in _random_games() if any(c for _, c in g.components)]
    games += [
        tptg.build(SHIPPED[variant], price="time") for variant in ("honest", "malicious1", "malicious2")
    ]
    calls = 0
    for game in games:
        view = tptg.coalition_game(game, game.players[:1])
        target = "goal" if "goal" in game.labels else "terminated_ok"
        for solver in (tptg.prob_reach, tptg.expected_price):
            for direction in ("maxmin", "minmax"):
                def solve():
                    try:
                        solver(view, target, direction)
                    except tptg.ModelError:
                        pass

                for moves, active, found in _iterate_searches(solve):
                    assert found == _retired(move_successors(moves), active)
                    calls += 1
    assert calls > 100


def _location_graph(model) -> dict[str, list[str]]:
    """The edges the time-convergence check searches, as
    `retired_zeno_search.py` collects them, each list in name order."""
    successors = {loc: set() for loc in model.locations}
    for (loc, act), dist in model.transitions.items():
        guard = model.enabling.get((loc, act), TRUE)
        if any(a.op == GE and a.bound >= 1 for a in guard.atoms):
            continue
        for branch in dist:
            if not branch.resets:
                successors[loc].add(branch.target)
    return {loc: sorted(targets) for loc, targets in successors.items()}


def test_location_graphs_decompose_as_the_retired_search():
    models = list(SHIPPED.values()) + [two_location_cycle(), two_location_cycle(resets={"x"})]
    models += [random_tptg(random.Random(seed)) for seed in range(400)]
    cyclic = 0
    for model in models:
        graph = _location_graph(model)
        names = sorted(graph)  # numbered in name order, so both visit alike
        index = {name: i for i, name in enumerate(names)}
        edges = [[index[t] for t in graph[name]] for name in names]
        found = [([names[i] for i in members], c) for members, c in _found(edges.__getitem__, len(names))]
        assert found == _retired(graph.__getitem__, model.locations)
        cyclic += any(c for _, c in found)
    assert 0 < cyclic < len(models)
