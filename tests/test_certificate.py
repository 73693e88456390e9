"""The certificate on chosen move indices against the retired one kept in
`retired_certificate.py`, and the views the certificate and the determinacy
check solve, which must share the game's decomposition.

Both certificates must accept and refuse alike, with the same deviation in
the message, on synthesized profiles and on profiles with one optimal move
swapped for a worse one; the perturbed profiles must be refused. Among the
chains compared are ones that break a cached cyclic SCC into other SCCs.
"""

import dataclasses
import importlib.resources
import itertools
import random

import pytest

import tptg
from tptg import ModelError, casestudies
from tptg.cli import main, property_game
from tptg.game import move_successors, strongly_connected
from tptg.solver import _certify, _choose, _opt_for, _pass, _target_set

import retired_certificate
import retired_scc
import retired_solver
from retired_solver import _backup
from gamegen import random_game, reshaped
from reference_solves import check_determinacy
from test_cli import SHIPPED_SWEEPS

SOLVERS = (tptg.prob_reach, tptg.expected_price)


def _certificates(solve) -> list[tuple]:
    """The arguments of every certificate that `solve()` asks for."""
    calls = []

    def record(game, objective, vector, choice, tol):
        calls.append((game, objective, vector, choice, tol))
        return _certify(game, objective, vector, choice, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tptg.solver, "_certify", record)
        try:
            solve()
        except ModelError:
            pass
    return calls


def _verdict(certify, *args) -> str:
    try:
        certify(*args)
    except ModelError as exc:
        return str(exc)
    return "accepted"


def _labels(game, choice):
    return {s: game.moves[s][mi].label for s, mi in choice.items()}


def _agree(game, objective, vector, choice, tol) -> str:
    new = _verdict(_certify, game, objective, vector, choice, tol)
    old = _verdict(retired_certificate.certify, game, objective, vector, _labels(game, choice), tol)
    assert new == old
    return new


def _every_choice(game, objective, vector, tol):
    """The choice step on every SCC over the values pass with `vector` held
    fixed: the choices a read of a solve's strategy, or `synthesize`, makes."""
    targets = _target_set(game, objective.target)
    result, steps, rounds = _pass(game, objective, targets, tol, 0, list(vector))
    return _choose(game, objective, targets, tol, result.values, steps, rounds, game.components)


def _perturbed(game, objective, vector, choice):
    """`choice` with the move of one state the chain reaches swapped for one
    that is worse for the state's owner under `vector` by far more than the
    certificate's slack."""
    prices = objective.kind == "exp-price"
    opt = _opt_for(game, objective.direction)
    for s in retired_certificate.chain_reachable(game, _labels(game, choice)):
        if s not in choice:
            continue
        chosen = _backup(game.moves[s][choice[s]], vector, prices)
        for mi, move in enumerate(game.moves[s]):
            backup = _backup(move, vector, prices)
            worse = chosen - backup if opt[s] is max else backup - chosen
            if worse > 1e-6 * max(1.0, abs(chosen)):
                yield {**choice, s: mi}


def _splits_a_cyclic_scc(game, choice) -> bool:
    """Whether the chain of `choice` breaks the states it reaches of some
    cached cyclic SCC into other SCCs."""
    chain = [(game.moves[s][choice[s]],) if s in choice else () for s in range(len(game.states))]
    reached = set(retired_certificate.chain_reachable(game, _labels(game, choice)))
    for states, cyclic in game.components:
        members = [s for s in states if s in reached]
        if cyclic and members and list(retired_scc.strongly_connected(move_successors(chain), members)) != [(members, True)]:
            return True
    return False


def _check_solve(solve, perturbations=None) -> tuple[int, int, int]:
    """Compare both certificates on what `solve()` certifies, and on up to
    `perturbations` perturbed profiles of each; returns the counts of both
    and of the certified chains that split a cached cyclic SCC. A solve
    certifies the choices it made where the play goes, which must be those
    of the choice step on every SCC; the perturbed profiles swap a move of
    the latter, so a swapped move may lead anywhere."""
    certified = perturbed = split = 0
    for game, objective, vector, choice, tol in _certificates(solve):
        _agree(game, objective, vector, choice, tol)
        every = _every_choice(game, objective, vector, tol)
        assert choice.items() <= every.items()
        certified += 1
        split += _splits_a_cyclic_scc(game, choice)
        swaps = itertools.islice(_perturbed(game, objective, vector, every), perturbations)
        for swapped in swaps:
            assert _agree(game, objective, vector, swapped, tol).startswith(
                "synthesized profile fails its optimality certificate"
            )
            perturbed += 1
    return certified, perturbed, split


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_random_games_certify_as_the_retired_certificate(acyclic):
    certified = perturbed = 0
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(30):
            game = random_game(rng, max_states=7, min_price=0, max_price=3, acyclic=acyclic)
            for solver in SOLVERS:
                for direction in ("maxmin", "minmax"):
                    done = _check_solve(lambda: solver(game, "goal", direction))
                    certified += done[0]
                    perturbed += done[1]
    assert certified > 300 and perturbed > 300


def test_reshaped_games_certify_as_the_retired_certificate():
    # moves out of (delay, action) order with tied keys, probability-0
    # branches and repeated targets; chains that split a cached cyclic SCC
    done = [0, 0, 0]
    for seed in range(2000, 2003):
        rng = random.Random(seed)
        for _ in range(40):
            game = reshaped(rng, random_game(rng, max_states=8, min_price=0, max_price=3))
            for solver in SOLVERS:
                for direction in ("maxmin", "minmax"):
                    for i, count in enumerate(_check_solve(lambda: solver(game, "goal", direction))):
                        done[i] += count
    certified, perturbed, split = done
    assert certified > 400 and perturbed > 400 and split > 100


@pytest.mark.parametrize("seed, index, deviation", [(15, 10, "2.126e-07"), (36, 14, "8.114e-06")])
def test_refused_certificates_match_the_retired_certificate(seed, index, deviation):
    rng = random.Random(seed)
    for _ in range(index + 1):
        game = random_game(rng, max_states=6, min_price=0, max_price=2)
    ((game, objective, vector, choice, tol),) = _certificates(
        lambda: tptg.expected_price(game, "goal", "maxmin")
    )
    assert f"deviates by {deviation}" in _agree(game, objective, vector, choice, tol)


CASE_STUDIES = {
    **{f"taskgraph-{k}": lambda k=k: casestudies.taskgraph_source(k, k, "1/2") for k in range(2)},
    **{f"nonrep-{v}": lambda v=v: casestudies.nonrepudiation_source(v, p="1/2")
       for v in casestudies.NONREP_VARIANTS},
}


@pytest.mark.parametrize("make_source", CASE_STUDIES.values(), ids=CASE_STUDIES.keys())
def test_case_studies_certify_as_the_retired_certificate(make_source):
    source = make_source()
    model = tptg.to_tptg(source)
    tol, max_iters = tptg.solver.DEFAULT_TOL, tptg.solver.DEFAULT_MAX_ITERS
    certified = perturbed = 0
    for prop in source.props:
        objective, game = property_game(model, prop, tptg.semantics.DEFAULT_STATE_LIMIT, {})
        done = _check_solve(
            lambda: tptg.solve(game, objective, tol=tol, max_iters=max_iters), perturbations=3
        )
        certified += done[0]
        perturbed += done[1]
    assert certified == len(source.props) and perturbed > 0


TASKGRAPH_TIME = [
    "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2",
    "--prop", "Emin [ F all_done ] price time coalition {sched}",
]


def test_certificates_and_pinned_solves_share_the_game_decomposition(monkeypatch, capsys):
    # the certificate's induced chain and check_determinacy's pinned sides
    # are views that only drop moves, so they take the game's own cached SCCs
    built, passed, searches = [], [], []
    property_game, pass_of = tptg.cli.property_game, tptg.solver._pass

    def record_game(*args, **kwargs):
        built.append(property_game(*args, **kwargs))
        return built[-1]

    def record_pass(game, *args):
        passed.append(game)
        return pass_of(game, *args)

    monkeypatch.setattr(tptg.cli, "property_game", record_game)
    monkeypatch.setattr(tptg.solver, "_pass", record_pass)
    fig1 = str(importlib.resources.files("tptg") / "models" / "fig1.tptg")
    assert main(["check", fig1]) == 0
    passed.clear()
    assert main(["check", *TASKGRAPH_TIME]) == 0
    assert capsys.readouterr().out.count("converged=true") == 4
    objective, game = built[-1]
    solved, chain = passed
    assert solved is game and chain is not game
    assert chain.components is game.components
    assert all(len(ms) <= 1 for ms in chain.moves)

    def search(*args):
        searches.append(args)
        return strongly_connected(*args)

    monkeypatch.setattr(tptg.game, "strongly_connected", search)
    monkeypatch.setattr(tptg.solver, "strongly_connected", search)
    fresh = dataclasses.replace(game)  # not yet decomposed
    value = tptg.expected_price(game, objective.target, objective.direction).initial_value
    bracket = check_determinacy(fresh, objective.target, objective.kind, objective.direction)
    assert len(searches) == 1
    assert bracket == (value, value)


def _closure(game, objective, values, tol):
    """States reached from the initial state under optimal and spoiling
    moves, worked out with the retired path's backups and spoilers."""
    prices = objective.kind == "exp-price"
    targets = game.label_states(objective.target)
    payer = game.players[1 - tptg.solver._reach_maximizer(objective.direction)]
    spoilers = retired_solver._almost_sure(game, targets, payer)[1] if prices else {}
    opt = _opt_for(game, objective.direction)
    reached, stack = {game.initial}, [game.initial]
    while stack:
        s = stack.pop()
        backups = [_backup(m, values, prices) for m in game.moves[s]]
        best = opt[s](backups) if backups else 0.0
        slack = 0.0 if best == float("inf") else 2 * tol * max(1.0, abs(best))
        keep = {i for i, b in enumerate(backups) if b == best or abs(b - best) <= slack}
        if s in spoilers and values[s] == float("inf"):
            keep.add(spoilers[s])
        for i in keep:
            for t, p in game.moves[s][i].branches:
                if p > 0 and t not in reached:
                    reached.add(t)
                    stack.append(t)
    return reached


def _taskgraph_time():
    source = casestudies.taskgraph_source(1, 1, "1/2")
    prop = tptg.parse_property(TASKGRAPH_TIME[-1], source)
    return property_game(tptg.to_tptg(source), prop, tptg.semantics.DEFAULT_STATE_LIMIT, {})


def test_a_solve_chooses_moves_only_where_the_play_goes(monkeypatch):
    # the certificate reads choices on the play alone, so a solve runs the
    # choice step on the closure of the initial state under optimal and
    # spoiling moves, and formats no label; the first read of `strategy`
    # chooses everywhere, as `synthesize` and the retired path do
    objective, game = _taskgraph_time()
    tol = tptg.solver.DEFAULT_TOL
    choose, visited, labels = tptg.solver._choose, [], []

    def recorded(*args):
        visited.append([s for states, _ in args[-1] for s in states])
        return choose(*args)

    monkeypatch.setattr(tptg.solver, "_choose", recorded)
    with monkeypatch.context() as patch:
        patch.setattr(tptg.Move, "label", property(lambda m: labels.append(m) or m.action))
        result = tptg.solve(game, objective)
    [chosen] = visited
    closure = _closure(game, objective, result.values, tol)
    assert set(chosen) <= closure and len(closure) < len(game.states) // 10
    assert labels == []
    strategy = result.strategy
    assert len(visited) == 2 and len(visited[1]) == len(game.states) == 2690
    p1, p2 = tptg.synthesize(game, objective, result)
    assert strategy == {**p1, **p2}
    assert strategy == retired_solver.solve(game, objective).strategy


def test_the_certificate_bites_on_the_play_and_not_off_it(monkeypatch):
    # a value raised by 1e-3 in the values pass's output is refused on the
    # play the certificate walks and accepted outside the closure of optimal
    # and spoiling moves, where no choice is read
    objective, game = _taskgraph_time()
    tol = tptg.solver.DEFAULT_TOL
    solved = tptg.solve(game, objective)
    play = set(retired_certificate.chain_reachable(game, solved.strategy))
    closure = _closure(game, objective, solved.values, tol)
    finite = [s for s, v in enumerate(solved.values) if v < float("inf")]
    on_play = min(s for s in finite if s in play and s != game.initial)
    off = min(s for s in finite if s not in closure)
    pass_of = tptg.solver._pass

    def raised(state):
        def values_pass(view, objective, targets, tol, max_iters, *rest):
            out = pass_of(view, objective, targets, tol, max_iters, *rest)
            if view is game and not rest:
                out[0].values[state] += 1e-3
            return out
        return values_pass

    monkeypatch.setattr(tptg.solver, "_pass", raised(on_play))
    with pytest.raises(ModelError, match="fails its optimality certificate"):
        tptg.solve(game, objective)
    monkeypatch.setattr(tptg.solver, "_pass", raised(off))
    assert tptg.solve(game, objective).values[off] == solved.values[off] + 1e-3
