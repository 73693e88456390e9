"""The induction over the time budget (`solver.time_bounded`) against the
route it replaces in a T sweep: `bound_time` plus `solve` on each bound's
own game, compared bitwise on every state of that game; and its certificate's
chain against the two-pass chain of `tests/retired_budgets.py`."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import tptg
from tptg import ModelError, Objective
from tptg.cli import main
from tptg.solver import time_bounded

from gamegen import random_tptg
from retired_budgets import two_pass
from test_cli import FIG1, SHIPPED_SWEEPS, ZERO_DELAY_CYCLE


def _kind(price) -> str:
    return "prob-reach" if price is None else "exp-price"


def _bits(value) -> str:
    return float(value).hex()


def _views(game):
    """Each direction with the game's view for each coalition."""
    for direction in tptg.solver.DIRECTIONS:
        for size in range(len(game.players) + 1):
            for coalition in itertools.combinations(game.players, size):
                yield direction, coalition, tptg.coalition_game(game, coalition)


def _assert_equals_bound_time(game, target, kind, bounds):
    """The kernel's values at every budget up to max(bounds), in both
    directions and for every coalition, are bit for bit those `solve` gives
    each state (s, e) of ``bound_time(game, target, B)``: the value at
    budget B - e, or an exhausted budget's past B."""
    index = {(state.location, state.values): s for s, state in enumerate(game.states)}
    spent = math.inf if kind == "exp-price" else 0.0
    derived = {bound: tptg.bound_time(game, target, bound) for bound in bounds}
    for direction, coalition, view in _views(game):
        solved = time_bounded(view, Objective(kind, direction, target), max(bounds))
        assert solved is not None
        levels, converged = solved
        assert converged
        for bound, bounded in derived.items():
            objective = Objective(kind, direction, f"{target}_by_{bound}")
            values = tptg.solve(tptg.coalition_game(bounded, coalition), objective).values
            for state, want in zip(bounded.states, values, strict=True):
                e = state.values[-1]
                s = index[(state.location, state.values[:-1])]
                have = levels[bound - e][s] if e <= bound else spent
                assert _bits(have) == _bits(want), (direction, coalition, bound, state)


SMALL = {
    variant: lambda v=variant: tptg.gen_nonrepudiation(v, p=Fraction(1, 10))
    for variant in ("honest", "malicious1", "malicious2")
}

# with no clock a delay-1 move stands for every longer one, as in
# bound_time; at m the side maximizing the price waits past the bound
CLOCKLESS = (
    "player p, q;\n"
    "automaton a {\n  init l;\n"
    "  location l { inv true; rate time 2;\n"
    "    [go] true price time 3 -> 1/2: {} & m + 1/2: {} & k;\n"
    "    [stay] true -> 1: {} & m; }\n"
    "  location m { inv true; rate time 1; [on] true price time 1 -> 1: {} & n; }\n"
    "  location n { inv true; }\n"
    "  location k { inv true; }\n}\n"
    "owner { l -> p; * -> q; }\nlabel n = n;\n"
)


def _acyclic_random_models():
    """The models of random seeds 0..399 whose zero-delay moves form no cycle."""
    for seed in range(400):
        model = random_tptg(random.Random(seed))
        if time_bounded(tptg.build(model), Objective("prob-reach", "maxmin", "goal"), 0) is not None:
            yield model


def _cases(name, fig1_model):
    """The (game, target, kind, bounds) cases of one model the kernel is
    compared on."""
    if name in ("fig1", *SMALL):
        # bounds 0, 1, one inside the clock ceilings, one past them and one
        # past the values' saturation
        model = fig1_model if name == "fig1" else SMALL[name]()
        ceiling = max(tptg.max_constants(model).values())
        for price in (None, *model.prices):
            game = tptg.build(model, price)
            for target in model.labels:
                yield game, target, _kind(price), (0, 1, ceiling // 2, ceiling + 2, 3 * ceiling)
    elif name in ("taskgraph-time", "taskgraph-energy"):
        # infinite below bound 18, saturated from 20 on (clock ceilings 7)
        game = tptg.build(tptg.gen_taskgraph(1, 1, Fraction(1, 2)), name.removeprefix("taskgraph-"))
        yield game, "all_done", "exp-price", (0, 1, 21)
    elif name == "random":
        for model in _acyclic_random_models():
            for price in (None, *model.prices):
                yield tptg.build(model, price), "goal", _kind(price), (0, 1, 2, 5, 9)
    else:
        model = tptg.to_tptg(tptg.parse(CLOCKLESS))
        for price in (None, "time"):
            yield tptg.build(model, price), "n", _kind(price), (0, 1, 3, 6, 25)


CASES = ["fig1", *SMALL, "taskgraph-time", "taskgraph-energy", "random", "clockless"]


@pytest.mark.parametrize("name", ["fig1", *SMALL])
def test_the_kernel_equals_bound_time_and_solve_on_the_shipped_models(name, fig1_model):
    for case in _cases(name, fig1_model):
        _assert_equals_bound_time(*case)


@pytest.mark.parametrize("price", ["time", "energy"])
def test_the_kernel_equals_bound_time_and_solve_on_the_taskgraph(price):
    for case in _cases(f"taskgraph-{price}", None):
        _assert_equals_bound_time(*case)


def test_the_kernel_equals_bound_time_and_solve_on_random_models():
    # most random models have a zero-delay cycle (388 of these 400); the
    # rest are compared
    assert 10 <= len(list(_acyclic_random_models())) < 200
    for case in _cases("random", None):
        _assert_equals_bound_time(*case)


def test_the_kernel_spells_out_the_delays_of_a_clockless_model():
    for game, *case in _cases("clockless", None):
        assert not game.states[game.initial].values
        assert max(m.time for ms in game.moves for m in ms) == 1
        _assert_equals_bound_time(game, *case)


def test_each_route_spells_each_state_of_a_clockless_game_once_per_call(monkeypatch, fig1_game):
    # `bound_time` and the kernel spell out a state's delays once per call,
    # up to one past the bound, not once per (state, elapsed) key or per
    # (state, budget) cell; a game with clocks is never spelled out
    game = tptg.build(tptg.to_tptg(tptg.parse(CLOCKLESS)), "time")
    spell, calls = tptg.semantics.spell_delays, []

    def counted(moves, cap):
        calls.append(cap)
        return spell(moves, cap)

    for module in (tptg.semantics, tptg.solver):
        monkeypatch.setattr(module, "spell_delays", counted, raising=False)
    tptg.bound_time(game, "n", 25)
    assert calls == [26] * 4 == [26] * len(game)
    calls.clear()
    time_bounded(tptg.coalition_game(game, ["p"]), Objective("exp-price", "minmax", "n"), 25)
    assert calls == [26] * 4
    calls.clear()
    tptg.bound_time(fig1_game, "done", 25)
    time_bounded(tptg.coalition_game(fig1_game, ["sender"]), Objective("prob-reach", "maxmin", "done"), 25)
    assert calls == []


@pytest.mark.parametrize("name", CASES)
def test_the_one_visit_chain_equals_the_two_pass_oracle(monkeypatch, fig1_model, name):
    # one `_budgets` call per solve returns the values and the chain of the
    # chosen moves; both are bit for bit the retired two passes'
    budgets, chains = tptg.solver._budgets, []

    def recorded(*args):
        levels, chain = budgets(*args)
        chains.append(chain)
        return levels, chain

    monkeypatch.setattr(tptg.solver, "_budgets", recorded)
    for game, target, kind, bounds in _cases(name, fig1_model):
        for direction, coalition, view in _views(game):
            chains.clear()
            objective = Objective(kind, direction, target)
            levels, _ = time_bounded(view, objective, max(bounds))
            assert len(chains) == 1
            want_levels, want_chain = two_pass(view, objective, max(bounds))
            for have, want in ((levels, want_levels), (chains[0], want_chain)):
                assert [list(map(_bits, level)) for level in have] == [list(map(_bits, level)) for level in want], \
                    (direction, coalition, target)


def test_a_zero_delay_cycle_gives_no_kernel():
    game = tptg.build(tptg.to_tptg(tptg.parse(ZERO_DELAY_CYCLE)))
    for kind in ("prob-reach", "exp-price"):
        assert time_bounded(tptg.coalition_game(game, ["a"]), Objective(kind, "maxmin", "done"), 5) is None


def test_the_kernel_refuses_what_it_cannot_solve(fig1_game):
    view = tptg.coalition_game(fig1_game, ["sender"])
    with pytest.raises(ModelError, match="needs a probability or price objective and a bound >= 0"):
        time_bounded(view, Objective("prob-reach", "maxmin", "done"), -1)
    with pytest.raises(ModelError, match="tolerance must be a finite number"):
        time_bounded(view, Objective("prob-reach", "maxmin", "done"), 4, tol=-1.0)
    plain = tptg.make_game([[tptg.Move("a", ((1, 1.0),), 0.0, 1)], []], owner=[1, 2], labels={"goal": {1}})
    with pytest.raises(ModelError, match="needs a game built from a timed model"):
        time_bounded(plain, Objective("prob-reach", "maxmin", "goal"), 3)


@pytest.mark.parametrize("name, budget, wrong", [
    ("fig1", 3, 0.75),  # a value backed up from its successors, 0.5
    ("fig1", 12, 0.0),  # a sure value, 1
    ("taskgraph", 19, math.inf),  # a finite price, 18
    ("taskgraph", 5, 18.0),  # an infinite price
])
def test_a_corrupted_value_vector_fails_the_certificate(monkeypatch, fig1_game, taskgraph_k1_p1, name, budget, wrong):
    # the certificate compares the values with the chain of the chosen
    # moves, which the one `_budgets` call backs up from vectors of its own
    if name == "fig1":
        game = tptg.coalition_game(fig1_game, ["sender", "medium"])
        objective = Objective("prob-reach", "maxmin", "done")
    else:
        game = tptg.coalition_game(taskgraph_k1_p1[1], ["sched"])
        objective = Objective("exp-price", "minmax", "all_done")
    levels, _ = time_bounded(game, objective, 20)
    assert levels[budget][game.initial] != wrong
    budgets = tptg.solver._budgets
    calls = []

    def corrupted(*args):
        values, chain = budgets(*args)
        values[budget][game.initial] = wrong  # the solve's values, not the chain's
        calls.append(1)
        return values, chain

    monkeypatch.setattr(tptg.solver, "_budgets", corrupted)
    with pytest.raises(ModelError, match="fails its optimality certificate"):
        time_bounded(game, objective, 20)
    assert len(calls) == 1


# one move per state, so that no error in the values can change a choice
ONE_MOVE = (
    "player p, q;\nclock x;\n"
    "automaton a {\n  init l;\n"
    "  location l { inv x <= 1; [go] x >= 1 -> 1/2: {x} & m + 1/2: {x} & k; }\n"
    "  location m { inv x <= 1; [on] x >= 1 -> 1/2: {x} & n + 1/2: {x} & l; }\n"
    "  location n { inv x <= 1; }\n"
    "  location k { inv x <= 1; }\n}\n"
    "owner { l -> p; * -> q; }\nlabel n = n;\n"
)


def test_the_chain_never_reads_the_values_it_checks(monkeypatch):
    # every value the induction backs up is stored 1 too high: the chain,
    # backed up in the same visit, is still the retired two passes' chain
    game = tptg.build(tptg.to_tptg(tptg.parse(ONE_MOVE)))
    objective = Objective("prob-reach", "maxmin", "n")
    want_levels, want_chain = two_pass(game, objective, 8)
    budgets, returned = tptg.solver._budgets, []

    def recorded(*args):
        returned.append(budgets(*args))
        return returned[-1]

    def raised(values, s, new):
        values[s] = new + 1

    monkeypatch.setattr(tptg.solver, "_budgets", recorded)
    monkeypatch.setattr(tptg.solver, "_update", raised)
    with pytest.raises(ModelError, match="fails its optimality certificate"):
        time_bounded(game, objective, 8)
    [(levels, chain)] = returned
    assert [list(map(_bits, level)) for level in chain] == [list(map(_bits, level)) for level in want_chain]
    assert levels != want_levels


# stdout and exit code as on the route through `bound_time`'s game and `solve`
@pytest.mark.parametrize("argv, out", [
    ([FIG1, "--prop", "Pmax [ F done ] coalition {sender, medium}",
      "--prop", "Pmin [ F done ] coalition {sender}", "--values", "0,3,10,40"],
     "T,Pmax[F done] {sender,medium},Pmin[F done] {sender}\n0,0,0\n3,0,0\n10,1,1\n40,1,1\n"),
    (["--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2",
      "--prop", "Emin [ F all_done ] price time coalition {sched}",
      "--prop", "Emax [ F all_done ] price energy coalition {sched}", "--values", "0,17,18,30"],
     "T,Emin[F all_done] price time {sched},Emax[F all_done] price energy {sched}\n"
     "0,inf,0\n17,inf,0\n18,0,0\n30,0,0\n"),
], ids=["fig1", "taskgraph"])
def test_a_T_sweep_with_no_iterations_prints_the_qualitative_starts(argv, out, capsys):
    # each value stays at its start: 1 or 0, or 0 or infinity for a price
    assert main(["sweep", *argv, "--param", "T", "--max-iters", "0"]) == 2
    assert capsys.readouterr().out == out


def test_the_state_limit_bounds_only_the_unbounded_build(capsys):
    # the honest game has 3 states, the game `bound_time` derives for bound
    # 100 has 299: the induction over the budget derives none
    sweep = SHIPPED_SWEEPS["honest_termination_by_T.csv"]
    assert main(sweep) == 0
    full = capsys.readouterr().out
    assert main(sweep + ["--state-limit", "3"]) == 0
    assert capsys.readouterr().out == full
    assert main(sweep + ["--state-limit", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: state limit of 2 exceeded after exploring 2 states; "
        "raise the limit (--state-limit / TPTG_STATE_LIMIT) to continue\n"
    )
