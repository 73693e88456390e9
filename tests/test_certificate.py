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
from tptg.solver import _certify, _opt_for

import retired_certificate
import retired_scc
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
    and of the certified chains that split a cached cyclic SCC."""
    certified = perturbed = split = 0
    for game, objective, vector, choice, tol in _certificates(solve):
        _agree(game, objective, vector, choice, tol)
        certified += 1
        split += _splits_a_cyclic_scc(game, choice)
        swaps = itertools.islice(_perturbed(game, objective, vector, choice), perturbations)
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
