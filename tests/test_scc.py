"""SCC-ordered value iteration: differential tests against the global
Gauss-Seidel sweep kept in `global_sweep.py`, and edge cases."""

import math
import random

import pytest

import tptg
from tptg import ModelError, Move, brute_force_solve, casestudies, make_game
from tptg.cli import main, run_property

from global_sweep import global_sweep
from gamegen import random_game

SOLVERS = {"prob-reach": tptg.prob_reach, "exp-price": tptg.expected_price}


def _outcome(call, oracle=False):
    """`call()`, or the message it raised; under the global sweep with
    `oracle`."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(tptg.solver, "_iterate", global_sweep)
        try:
            return call()
        except ModelError as exc:
            return str(exc)


def _both(call):
    return _outcome(call), _outcome(call, oracle=True)


def _bits(values):
    return [v.hex() for v in values]


def _assert_identical(new, old):
    assert _bits(new.values) == _bits(old.values)
    assert new.prob0 == old.prob0
    assert new.prob1 == old.prob1
    assert new.strategy == old.strategy
    assert new.residual == old.residual
    assert new.converged and old.converged
    assert new.iterations == 1


def _assert_close(new, old, tol):
    assert new.converged and old.converged
    assert new.prob0 == old.prob0
    assert new.prob1 == old.prob1
    for a, b in zip(new.values, old.values):
        assert (math.isinf(a) and math.isinf(b)) or abs(a - b) <= 10 * tol


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_random_games_match_the_global_sweep(acyclic):
    tol = 1e-12
    swept = 0  # cyclic solves that needed more than one sweep
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(40 if acyclic else 20):
            game = random_game(rng, max_states=7, min_price=0, max_price=3, acyclic=acyclic)
            for kind, solver in SOLVERS.items():
                for direction in ("maxmin", "minmax"):
                    new, old = _both(lambda: solver(game, "goal", direction, tol=tol))
                    if isinstance(old, str):
                        assert new == old
                        continue
                    if acyclic:
                        _assert_identical(new, old)
                        continue
                    _assert_close(new, old, tol)
                    swept += new.iterations > 1
                    try:
                        exact = brute_force_solve(game, "goal", kind, direction)
                    except ModelError:
                        continue
                    if math.isinf(exact):
                        assert math.isinf(new.initial_value)
                    else:
                        assert abs(new.initial_value - float(exact)) < 1e-7
    assert acyclic or swept > 0


#: case study -> (source, whether its games are acyclic)
CASE_STUDIES = {
    **{f"taskgraph-{k}": (lambda k=k: casestudies.taskgraph_source(k, k, "1/2"), True)
       for k in range(3)},
    **{f"nonrep-{v}": (lambda v=v: casestudies.nonrepudiation_source(v, p="1/2"), False)
       for v in casestudies.NONREP_VARIANTS},
}


@pytest.mark.parametrize("make_source, acyclic", CASE_STUDIES.values(), ids=CASE_STUDIES.keys())
def test_case_studies_match_the_global_sweep(make_source, acyclic):
    source = make_source()
    model = tptg.to_tptg(source)
    tol, max_iters = tptg.solver.DEFAULT_TOL, tptg.solver.DEFAULT_MAX_ITERS
    for prop in source.props:
        new, game = run_property(model, prop, tol, max_iters, tptg.semantics.DEFAULT_STATE_LIMIT)
        old = _outcome(lambda: tptg.solve(game, new.objective, tol, max_iters), oracle=True)
        if acyclic:
            _assert_identical(new, old)
        else:
            _assert_close(new, old, tol)
            assert new.strategy == old.strategy


def test_long_acyclic_chain_is_one_backward_pass():
    length = 50_000
    moves = [[Move("step", ((s + 1, 1.0),), price=1.0)] for s in range(length)] + [[]]
    owner = [1, 2] * (length // 2) + [1]
    game = make_game(moves, owner=owner, labels={"goal": {length}}, players=(1, 2))
    result = tptg.expected_price(game, "goal", "maxmin")
    assert result.converged and result.iterations == 1 and result.residual == 0.0
    assert result.initial_value == length
    assert len(result.strategy) == length


def _trivial_then_cyclic_game():
    """States 0 and 1 form a cycle that feeds the trivial SCC {2}."""
    moves = [
        [Move("a", ((1, 0.5), (2, 0.5)))],
        [Move("a", ((0, 0.9), (3, 0.1)))],
        [Move("a", ((3, 0.5), (4, 0.5)))],
        [],  # goal
        [],  # sink
    ]
    return make_game(moves, owner=[1, 2, 1, 1, 1], labels={"goal": {3}}, players=(1, 2))


def test_cyclic_scc_hitting_the_cap_after_a_trivial_scc():
    game = _trivial_then_cyclic_game()
    result = tptg.prob_reach(game, "goal", max_iters=3)
    assert not result.converged
    assert result.iterations == 3
    assert result.strategy is None
    assert "value iteration did not converge; no strategy synthesized" in result.warnings
    assert result.values[2] == 0.5  # the trivial SCC was solved first
    solved = tptg.prob_reach(game, "goal")
    assert solved.converged and solved.iterations > 3


CYCLE_AFTER_TRIVIAL = """\
player p, q;
clock x;
automaton m {
  init loop;
  location loop {
    inv x <= 1;
    [go] x >= 1 -> 1/2: {x} & loop + 1/2: {x} & coin;
  }
  location coin {
    inv x <= 1;
    [flip] x >= 1 -> 1/2: {x} & done + 1/2: {x} & lost;
  }
  location done { inv x <= 1; }
  location lost { inv x <= 1; }
}
compose m;
owner { coin -> q; * -> p; }
label done = done;
prop Pmax [ F done ] coalition {p};
"""


def test_check_exits_2_when_a_cyclic_scc_hits_the_cap(tmp_path, capsys):
    path = tmp_path / "cycle.tptg"
    path.write_text(CYCLE_AFTER_TRIVIAL)
    assert main(["check", str(path), "--max-iters", "1"]) == 2
    assert "converged=false" in capsys.readouterr().out
    assert main(["check", str(path)]) == 0
    assert "converged=true" in capsys.readouterr().out


@pytest.mark.parametrize("max_iters", [0, 1])
def test_no_active_state_keeps_the_global_sweep_answer(max_iters):
    # every state reaches the goal surely, so qualitative analysis pins all
    moves = [[Move("step", ((1, 1.0),))], []]
    game = make_game(moves, owner=[1, 2], labels={"goal": {1}}, players=(1, 2))
    new, old = _both(lambda: tptg.prob_reach(game, "goal", max_iters=max_iters))
    for field in ("values", "iterations", "residual", "converged", "strategy", "warnings"):
        assert getattr(new, field) == getattr(old, field), field
    assert new.converged == (max_iters == 1)
    assert new.iterations == max_iters
