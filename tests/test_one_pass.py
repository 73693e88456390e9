"""The one successors-first pass per solve against the retired solve path kept
in `retired_solver.py` (separate walks for rounds, values, ties and the stall
check): bitwise-identical outcomes, and what the pass costs."""

import dataclasses
import random

import pytest

import tptg
from tptg import ModelError, Move, make_game
from tptg.cli import main
from tptg.game import move_successors

import retired_scc
import retired_solver
from gamegen import random_game, reshaped
from test_cli import SHIPPED_SWEEPS
from test_scc import _trivial_then_cyclic_game

SOLVERS = ("prob_reach", "expected_price")


def _outcome(solver, *args, **kwargs):
    """Every compared field of a solve, or the message it was refused with."""
    try:
        result = solver(*args, **kwargs)
    except ModelError as exc:
        return str(exc)
    return _fields(result)


def _fields(result):
    return (
        [v.hex() for v in result.values],
        result.prob0,
        result.prob1,
        result.iterations,
        result.residual.hex(),
        result.converged,
        result.strategy,
        result.warnings,
    )


def _assert_identical(game, direction, tol=tptg.solver.DEFAULT_TOL) -> list:
    """Both objectives solved by the pass and by the retired path; returns
    the outcomes."""
    outcomes = []
    for name in SOLVERS:
        new = _outcome(getattr(tptg, name), game, "goal", direction, tol=tol)
        assert new == _outcome(getattr(retired_solver, name), game, "goal", direction, tol=tol)
        outcomes.append(new)
    return outcomes


def test_random_games_match_the_retired_solve_path():
    refused = swept = 0
    for seed in range(1000, 1005):
        rng = random.Random(seed)
        for acyclic in (False, True):
            for _ in range(40):
                game = random_game(rng, max_states=8, min_price=0, max_price=3, acyclic=acyclic)
                for direction in tptg.solver.DIRECTIONS:
                    for tol in (1e-8, 1e-12):
                        for outcome in _assert_identical(game, direction, tol):
                            refused += isinstance(outcome, str)
                            swept += not isinstance(outcome, str) and outcome[3] > 1
    assert refused > 0 and swept > 0


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_reshaped_moves_match_the_retired_solve_path(acyclic):
    # moves stored out of (delay, action) order with tied keys, probability-0
    # branches and repeated targets, which built games never have; expected
    # prices with infinite best values
    refused = infinite = 0
    for seed in range(2000, 2005):
        rng = random.Random(seed)
        for _ in range(40):
            game = reshaped(rng, random_game(rng, max_states=8, min_price=0, max_price=2, acyclic=acyclic))
            for direction in tptg.solver.DIRECTIONS:
                for outcome in _assert_identical(game, direction):
                    refused += isinstance(outcome, str)
                    infinite += not isinstance(outcome, str) and "inf" in outcome[0]
    assert acyclic or (infinite > 80 and refused > 10)  # acyclic games reach the goal surely


def _cycle_through_the_target():
    """The cached SCC {0, 1, 2} passes through the goal 2; its undecided
    states split into the self-looping {1} and the trivial {0}."""
    moves = [
        [Move("go", ((1, 1.0),), price=1.0), Move("slow", ((1, 1.0),), price=2.0)],
        [Move("on", ((2, 0.5), (1, 0.5)), price=1.0), Move("skip", ((2, 1.0),), price=3.0)],
        [Move("again", ((0, 1.0),))],
    ]
    return make_game(moves, owner=[1, 2, 1], labels={"goal": {2}}, players=(1, 2))


def _cycle_through_a_probability_0_state():
    """The cached SCC {0, 1, 2} passes through state 2, where player 2 can
    drop to the sink 3; under ``maxmin`` reachability the undecided states
    split into the self-looping {1} and the trivial {0}."""
    moves = [
        [Move("go", ((1, 0.5), (4, 0.5)), price=1.0)],
        [Move("on", ((2, 0.5), (1, 0.25), (4, 0.25)), price=2.0)],
        [Move("back", ((0, 1.0),)), Move("drop", ((3, 1.0),), price=1.0)],
        [],
        [],  # goal
    ]
    return make_game(moves, owner=[1, 1, 2, 1, 1], labels={"goal": {4}}, players=(1, 2))


@pytest.mark.parametrize("make, solver", [
    (_cycle_through_the_target, tptg.expected_price),
    (_cycle_through_a_probability_0_state, tptg.prob_reach),
], ids=["through-the-target", "through-a-probability-0-state"])
def test_a_cyclic_scc_whose_undecided_states_split(make, solver):
    game = make()
    assert ((0, 1, 2), True) in game.components
    result = solver(game, "goal", "maxmin")
    if result.prob0 is None:  # expected price iterates the almost-sure states
        undecided = [s for s in (0, 1, 2) if s in result.prob1 - game.labels["goal"]]
    else:
        undecided = [s for s in (0, 1, 2) if s not in result.prob0 | result.prob1]
    pieces = list(retired_scc.strongly_connected(move_successors(game.moves), undecided))
    assert pieces == [([1], True), ([0], False)]
    assert result.converged and result.iterations > 1
    for direction in tptg.solver.DIRECTIONS:
        for outcome in _assert_identical(game, direction):
            assert not isinstance(outcome, str)


def test_backups_count_each_state_backup_once():
    # 23 sweeps over the 2-state SCC and one backup of the trivial state 2
    result = tptg.prob_reach(_trivial_then_cyclic_game(), "goal")
    assert result.iterations == 23
    assert result.backups == 23 * 2 + 1
    assert "backups" not in result.to_json_dict()


def test_the_taskgraph_sweep_searches_each_built_game_once(monkeypatch, tmp_path):
    # one search per built game for `Tsg.components` (5 models: p=0, 1/4
    # and 1 are built, 1/2 and 3/4 reweigh the game of the row before); the
    # games are acyclic, so neither a solve nor a certificate re-splits an SCC
    searches = []
    search = tptg.game.strongly_connected

    def counted(successors, n):
        searches.append(1)
        return search(successors, n)

    for module in (tptg.game, tptg.solver):
        monkeypatch.setattr(module, "strongly_connected", counted)
    name = "taskgraph_expected_by_p.csv"
    assert main(SHIPPED_SWEEPS[name] + ["--csv", str(tmp_path / name)]) == 0
    assert len(searches) == 3


def test_no_solve_builds_a_reverse_index_over_the_whole_game(monkeypatch, tmp_path):
    # reverse maps cover one cyclic SCC's moves, or the chosen moves of the
    # states of one that a certificate's chain reaches; the game keeps only
    # its components
    assert not hasattr(tptg.Tsg, "predecessors")
    indexed = []
    index = tptg.solver._predecessors

    def recorded(moves, states):
        indexed.append(set(states))
        return index(moves, states)

    monkeypatch.setattr(tptg.solver, "_predecessors", recorded)
    name = "taskgraph_expected_by_p.csv"
    assert main(SHIPPED_SWEEPS[name] + ["--csv", str(tmp_path / name)]) == 0
    assert indexed == []  # its games are acyclic
    fields = {f.name for f in dataclasses.fields(tptg.Tsg)}
    maps = 0
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(30):
            game = random_game(rng, max_states=8, min_price=0, max_price=3)
            cyclic = [set(states) for states, cyclic in game.components if cyclic]
            indexed.clear()
            for name in SOLVERS:
                for direction in tptg.solver.DIRECTIONS:
                    try:
                        getattr(tptg, name)(game, "goal", direction)
                    except ModelError:
                        pass
            assert all(any(states <= scc for scc in cyclic) for states in indexed)
            assert set(vars(game)) == fields | {"_components"}
            maps += len(indexed)
    assert maps > 1000


@pytest.mark.parametrize("name, solves, acyclic_backups", [
    ("honest_termination_by_T.csv", 0, 0),  # by induction over the time budget
    ("taskgraph_expected_by_p.csv", 10, 20234),
])
def test_the_shipped_sweeps_match_the_retired_solve_path(monkeypatch, tmp_path, name, solves, acyclic_backups):
    # on an acyclic game each active state is backed up exactly once; a T
    # sweep's column at each row's bound T equals the retired solve of the
    # game `bound_time` derives for T alone
    seen, inducted = [], []
    solve, time_bounded = tptg.cli.solve, tptg.cli.time_bounded

    def record(game, objective, tol, max_iters):
        result = solve(game, objective, tol=tol, max_iters=max_iters)
        seen.append((game, objective, tol, max_iters, result))
        return result

    def induct(game, objective, top, tol, max_iters):
        levels, converged = time_bounded(game, objective, top, tol, max_iters)
        inducted.append((game, objective, tol, max_iters, levels))
        return levels, converged

    monkeypatch.setattr(tptg.cli, "solve", record)
    monkeypatch.setattr(tptg.cli, "time_bounded", induct)
    assert main(SHIPPED_SWEEPS[name] + ["--csv", str(tmp_path / name)]) == 0
    assert len(seen) == solves
    assert len(inducted) == (4 if name.startswith("honest") else 0)  # one per column
    rows = (tmp_path / name).read_text().splitlines()[1:]
    for game, objective, tol, max_iters, levels in inducted:
        for bound in (int(row.split(",")[0]) for row in rows):
            bounded = tptg.bound_time(game, objective.target, bound)
            target = f"{objective.target}_by_{bound}"
            old = retired_solver.solve(bounded, dataclasses.replace(objective, target=target), tol, max_iters)
            assert levels[bound][game.initial].hex() == old.initial_value.hex(), (objective, bound)
    backups = 0
    for game, objective, tol, max_iters, result in seen:
        old = retired_solver.solve(game, objective, tol, max_iters)
        assert _fields(result) == _fields(old)
        if not any(cyclic for _, cyclic in game.components):
            if old.prob0 is None:
                active = old.prob1 - game.label_states(objective.target)
            else:
                active = set(range(len(game.states))) - old.prob0 - old.prob1
            assert result.backups == len(active)
            backups += result.backups
    assert backups == acyclic_backups


def test_synthesize_from_a_solve_repeats_its_strategy():
    # the same pass with the values held fixed
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(20):
            game = random_game(rng, max_states=7, min_price=0, max_price=3)
            for name in SOLVERS:
                try:
                    result = getattr(tptg, name)(game, "goal", "minmax")
                except ModelError:
                    continue
                p1, p2 = tptg.synthesize(game, result.objective, result)
                assert {**p1, **p2} == result.strategy
