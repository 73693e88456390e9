"""The induction over the time budget (`solver.time_bounded`) against the
route it replaces in a T sweep: `bound_time` plus `solve` on each bound's
own game, compared bitwise on every state of that game."""

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
from test_cli import FIG1, SHIPPED_SWEEPS, ZERO_DELAY_CYCLE


def _kind(price) -> str:
    return "prob-reach" if price is None else "exp-price"


def _bits(value) -> str:
    return float(value).hex()


def _assert_equals_bound_time(game, target, kind, bounds):
    """The kernel's values at every budget up to max(bounds), in both
    directions and for every coalition, are bit for bit those `solve` gives
    each state (s, e) of ``bound_time(game, target, B)``: the value at
    budget B - e, or an exhausted budget's past B."""
    index = {(state.location, state.values): s for s, state in enumerate(game.states)}
    spent = math.inf if kind == "exp-price" else 0.0
    derived = {bound: tptg.bound_time(game, target, bound) for bound in bounds}
    for direction in tptg.solver.DIRECTIONS:
        for size in range(len(game.players) + 1):
            for coalition in itertools.combinations(game.players, size):
                view = tptg.coalition_game(game, coalition)
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


@pytest.mark.parametrize("name", ["fig1", *SMALL])
def test_the_kernel_equals_bound_time_and_solve_on_the_shipped_models(name, fig1_model):
    # bounds 0, 1, one inside the clock ceilings, one past them and one past
    # the values' saturation
    model = fig1_model if name == "fig1" else SMALL[name]()
    ceiling = max(tptg.max_constants(model).values())
    for price in (None, *model.prices):
        game = tptg.build(model, price)
        for target in model.labels:
            _assert_equals_bound_time(
                game, target, _kind(price), (0, 1, ceiling // 2, ceiling + 2, 3 * ceiling)
            )


@pytest.mark.parametrize("price", ["time", "energy"])
def test_the_kernel_equals_bound_time_and_solve_on_the_taskgraph(price):
    # infinite below bound 18, saturated from 20 on (clock ceilings 7)
    game = tptg.build(tptg.gen_taskgraph(1, 1, Fraction(1, 2)), price)
    _assert_equals_bound_time(game, "all_done", "exp-price", (0, 1, 21))


def test_the_kernel_equals_bound_time_and_solve_on_random_models():
    # most random models have a zero-delay cycle (388 of these 400); the
    # rest are compared
    compared = cyclic = 0
    for seed in range(400):
        model = random_tptg(random.Random(seed))
        game = tptg.build(model)
        if time_bounded(game, Objective("prob-reach", "maxmin", "goal"), 0) is None:
            cyclic += 1
            continue
        compared += 1
        for price in (None, *model.prices):
            _assert_equals_bound_time(tptg.build(model, price), "goal", _kind(price), (0, 1, 2, 5, 9))
    assert compared >= 10 and cyclic > compared


def test_the_kernel_spells_out_the_delays_of_a_clockless_model():
    # with no clock a delay-1 move stands for every longer one, as in
    # bound_time; at m the side maximizing the price waits past the bound
    model = tptg.to_tptg(tptg.parse(
        "player p, q;\n"
        "automaton a {\n  init l;\n"
        "  location l { inv true; rate time 2;\n"
        "    [go] true price time 3 -> 1/2: {} & m + 1/2: {} & k;\n"
        "    [stay] true -> 1: {} & m; }\n"
        "  location m { inv true; rate time 1; [on] true price time 1 -> 1: {} & n; }\n"
        "  location n { inv true; }\n"
        "  location k { inv true; }\n}\n"
        "owner { l -> p; * -> q; }\nlabel n = n;\n"
    ))
    for price in (None, "time"):
        game = tptg.build(model, price)
        assert not game.states[game.initial].values
        assert max(m.time for ms in game.moves for m in ms) == 1
        _assert_equals_bound_time(game, "n", _kind(price), (0, 1, 3, 6))


def test_a_zero_delay_cycle_gives_no_kernel():
    game = tptg.build(tptg.to_tptg(tptg.parse(ZERO_DELAY_CYCLE)))
    for kind in ("prob-reach", "exp-price"):
        assert time_bounded(tptg.coalition_game(game, ["a"]), Objective(kind, "maxmin", "done"), 5) is None


def test_the_kernel_refuses_what_it_cannot_solve(fig1_game):
    view = tptg.coalition_game(fig1_game, ["sender"])
    with pytest.raises(ModelError, match="needs a probability or price objective and a bound >= 0"):
        time_bounded(view, Objective("prob-reach", "maxmin", "done"), -1)
    with pytest.raises(ModelError, match="needs a probability or price objective"):
        time_bounded(view, Objective("bounded-exp-price", "maxmin", "done", horizon=3), 4)
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
    # the certificate evaluates the chain of the chosen moves, budget by
    # budget, apart from the values it checks
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
        values, choices = budgets(*args)
        if not calls:  # the solve's values, not the chain's
            values[budget][game.initial] = wrong
        calls.append(1)
        return values, choices

    monkeypatch.setattr(tptg.solver, "_budgets", corrupted)
    with pytest.raises(ModelError, match="fails its optimality certificate"):
        time_bounded(game, objective, 20)
    assert len(calls) == 2


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
