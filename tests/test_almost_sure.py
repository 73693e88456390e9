"""Almost-sure analysis SCC by SCC against the whole-game shrinking loop kept
in `global_almost_sure.py`: equal probability-0 and -1 sets and equal
spoiling moves, on random games and on every view of the shipped sweeps."""

import math
import random

import pytest

import tptg
from tptg.cli import main
from tptg.solver import _cyclic_rounds, _spoiler

import retired_solver
from gamegen import random_game
from global_almost_sure import global_almost_sure, global_qualitative_reach
from test_cli import SHIPPED_SWEEPS


def _drop_rounds(game, targets, reacher, pin=None):
    """Drop rounds SCC by SCC, successors first, all by the solver's search
    for cyclic SCCs, which takes a state on no cycle as its smallest case
    (the pass's closed form for such a state is checked against the retired
    path below). A pin keeps only each pinned state's pinned move, in a view
    that shares the game's SCCs, as the solver's stall check pins."""
    components = game.components
    if pin:
        game = game.derive(moves=tuple(
            (ms[pin[s]],) if s in pin else ms for s, ms in enumerate(game.moves)
        ))
    rounds = [0] * len(game.states)
    for states, _ in components:
        _cyclic_rounds(game, states, targets, reacher, rounds)
    return rounds


def _almost_sure(game, targets, reacher, pin=None):
    """The almost-sure set and spoilers the solver reads off the drop
    rounds, in the global loop's result format."""
    rounds = _drop_rounds(game, targets, reacher, pin)
    spoilers = {
        s: _spoiler(game.moves[s], e, rounds)
        for s, e in enumerate(rounds)
        if e != math.inf and game.owner[s] != reacher and game.moves[s]
    }
    return frozenset(s for s, e in enumerate(rounds) if e == math.inf), spoilers


def _assert_agrees(game, targets, pin_rng=None):
    """Both directions of `qualitative_reach` and, for both players as the
    reacher, `_almost_sure` unpinned and, with `pin_rng`, under a random pin
    of the reacher's moves, all equal to the global loop."""
    for direction in tptg.solver.DIRECTIONS:
        assert tptg.qualitative_reach(game, targets, direction) == global_qualitative_reach(
            game, targets, direction
        )
    for reacher in game.players:
        pins = [None]
        if pin_rng is not None:
            pins.append({
                s: pin_rng.randrange(len(ms))
                for s, ms in enumerate(game.moves)
                if ms and game.owner[s] == reacher
            })
        for pin in pins:
            assert _almost_sure(game, targets, reacher, pin) == global_almost_sure(
                game, targets, reacher, pin
            )


@pytest.mark.parametrize("acyclic", [True, False], ids=["acyclic", "cyclic"])
def test_random_games_match_the_global_loop(acyclic):
    pin_rng = random.Random(99)
    cyclic_states = 0
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(60):
            game = random_game(rng, max_states=8, min_price=0, max_price=2, acyclic=acyclic)
            _assert_agrees(game, game.labels["goal"], pin_rng)
            cyclic_states += sum(len(states) for states, cyclic in game.components if cyclic)
    assert (cyclic_states == 0) == acyclic


def test_a_cyclic_scc_waits_for_the_last_exit_round():
    # state 0 leaves the candidates in round 1, which makes state 3 of the
    # cyclic SCC {1, 2, 3} drop in round 2; stopping at the first quiet round
    # that is not before the last exit round would keep it
    rng = random.Random(0)
    for _ in range(27):
        game = random_game(rng, max_states=8, min_price=0, max_price=2)
    targets = game.labels["goal"]
    assert ((1, 2, 3), True) in game.components
    rounds = _drop_rounds(game, targets, 1)
    assert rounds[0] == 1 and rounds[3] == 2
    assert _almost_sure(game, targets, 1) == global_almost_sure(game, targets, 1)
    assert 3 not in _almost_sure(game, targets, 1)[0]


@pytest.mark.parametrize("name, views", [
    ("honest_termination_by_T.csv", 4),  # the unbounded game, once per property
    ("taskgraph_expected_by_p.csv", 10),
])
def test_every_view_of_the_shipped_sweeps_matches_the_global_loop(monkeypatch, tmp_path, name, views):
    seen = []
    property_game = tptg.cli.property_game

    def record(*args, **kwargs):
        objective, game = property_game(*args, **kwargs)
        seen.append((game, objective.target))
        return objective, game

    monkeypatch.setattr(tptg.cli, "property_game", record)
    assert main(SHIPPED_SWEEPS[name] + ["--csv", str(tmp_path / name)]) == 0
    assert len(seen) == views
    for game, target in seen:
        _assert_agrees(game, game.label_states(target))


def test_an_expected_price_solve_runs_one_unpinned_almost_sure_pass(monkeypatch):
    # the pass takes each state's drop round once, as the retired path's
    # unpinned whole-game call does, and plays the spoilers read off them at
    # the avoider's infinite-valued states; a cyclic SCC of the game runs the
    # almost-sure search once. The stall check is the qualitative pass on a
    # view keeping the payer's chosen moves, with the retired pinned call's
    # rounds. A solve skips it on a game with no cyclic SCC; there
    # `synthesize`, which always runs it, shows that the view forces the
    # target from every finite-valued state, so the skip refuses nothing;
    # acyclic draws with dead ends hold infinite states next to that skip
    passes, stalls, searches = [], [], []
    pass_of, search = tptg.solver._pass, tptg.solver._cyclic_rounds

    def recorded(view, objective, targets, tol, max_iters, *fixed):
        out = pass_of(view, objective, targets, tol, max_iters, *fixed)
        if view is game:
            # with the choices of the choice step on every SCC, which a read
            # of the strategy or `synthesize` runs on the pass's backups
            result, steps, rounds = out
            choice = tptg.solver._choose(view, objective, targets, tol, result.values, steps, rounds, view.components)
            passes.append((result, choice, rounds))
        elif max_iters == 0:  # not the certificate's pass
            stalls.append(out[2])
        return out

    def counted(view, states, targets, reacher, rounds):
        if view is game:
            searches.append(states)
        return search(view, states, targets, reacher, rounds)

    monkeypatch.setattr(tptg.solver, "_pass", recorded)
    monkeypatch.setattr(tptg.solver, "_cyclic_rounds", counted)
    draws = {
        "default": {}, "acyclic": {"acyclic": True}, "dead ends": {"acyclic": True, "dead_ends": 0.2},
    }
    solves = dict.fromkeys(draws, 0)
    infinite = dict.fromkeys(draws, 0)
    skipped = finite = 0
    for draw, options in draws.items():
        for seed in range(10, 40):
            rng = random.Random(seed)
            for _ in range(60):
                game = random_game(rng, max_states=6, min_price=0, max_price=2, **options)
                targets = game.labels["goal"]
                cyclic = [states for states, cyclic in game.components if cyclic]
                for direction in tptg.solver.DIRECTIONS:
                    passes.clear()
                    stalls.clear()
                    searches.clear()
                    try:
                        tptg.expected_price(game, "goal", direction)
                    except tptg.ModelError:
                        pass  # refused solves count too
                    [(result, choice, rounds)] = passes
                    payer = game.players[1 - tptg.solver._reach_maximizer(direction)]
                    assert rounds == retired_solver._drop_rounds(game, targets, payer)
                    assert searches == cyclic
                    assert {
                        s: mi for s, mi in choice.items()
                        if game.owner[s] != payer and math.isinf(result.values[s])
                    } == retired_solver._almost_sure(game, targets, payer)[1]
                    if not cyclic:
                        assert not stalls
                        skipped += 1
                        passes.clear()
                        objective = tptg.Objective("exp-price", direction, "goal")
                        try:
                            tptg.synthesize(game, objective, result.values)
                        except tptg.ModelError:
                            pass
                        [(_, choice, _)] = passes
                    [pinned] = stalls
                    pin = {s: mi for s, mi in choice.items() if game.owner[s] == payer}
                    assert pinned == retired_solver._drop_rounds(game, targets, payer, pin)
                    if not cyclic:
                        forced = [pinned[s] == math.inf for s, v in enumerate(result.values) if v < math.inf]
                        assert all(forced)
                        finite += len(forced)
                    unreached = sum(map(math.isinf, result.values))
                    warned = [w.split()[0] for w in result.warnings if w.endswith("price is infinite")]
                    assert warned == ([str(unreached)] if unreached else [])
                    infinite[draw] += min(rounds) < math.inf
                    solves[draw] += 1
    assert solves == dict.fromkeys(draws, 3600)
    assert infinite["default"] > 1000 and infinite["dead ends"] > 1400
    assert skipped > 7300 and finite > 25000
