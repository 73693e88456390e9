"""The library's entry points that allocate per state, move or token, and
every CLI command as a whole, run with the cyclic garbage collector paused,
and give the caller's setting back on every exit."""

import gc
import sys
import threading
from fractions import Fraction

import pytest

import tptg
from tptg import ModelError, ParseError, StateLimitError
from tptg.cli import main
from tptg.solver import Objective, time_bounded

from reference_solves import check_determinacy
from test_cli import SHIPPED_SWEEPS

TASKGRAPH_CHECK = [
    "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2",
    "--prop", "Emin [ F all_done ] price time coalition {sched}",
]
REACH = Objective("prob-reach", "maxmin", "done")


@pytest.fixture(params=[True, False], ids=["collecting", "paused"])
def collecting(request):
    """The caller's collector setting, in force for the test and restored after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _view(game):
    return tptg.coalition_game(game, ["sender"])


CALLS = {
    "parse": lambda text, model, game: tptg.parse(text),
    "to_tptg": lambda text, model, game: tptg.to_tptg(tptg.parse(text)),
    "instantiate": lambda text, model, game: tptg.instantiate(
        tptg.to_tptg(tptg.taskgraph_source(1, 1, Fraction(1, 2))), {"p": Fraction(1, 3)}
    ),
    "build": lambda text, model, game: tptg.build(model),
    "reweigh": lambda text, model, game: tptg.reweigh(game, model),
    "bound_time": lambda text, model, game: tptg.bound_time(game, "done", 3),
    "components": lambda text, model, game: tptg.build(model).components,
    "solve": lambda text, model, game: tptg.solve(_view(game), REACH),
    "check_determinacy": lambda text, model, game: check_determinacy(_view(game), "done"),
    "time_bounded": lambda text, model, game: time_bounded(_view(game), REACH, 5),
}


@pytest.mark.parametrize("name", CALLS)
def test_each_paused_call_leaves_the_collector_as_it_found_it(
    collecting, name, fig1_text, fig1_model, fig1_game
):
    assert CALLS[name](fig1_text, fig1_model, fig1_game) is not None
    assert gc.isenabled() is collecting


FAILURES = {
    "build": (StateLimitError, lambda model, game: tptg.build(model, state_limit=1)),
    "bound_time": (StateLimitError, lambda model, game: tptg.bound_time(game, "done", 3, state_limit=1)),
    "solve": (ModelError, lambda model, game: tptg.prob_reach(_view(game), "done", tol=-1.0)),
    "time_bounded": (ModelError, lambda model, game: time_bounded(_view(game), REACH, -1)),
    "parse": (ParseError, lambda model, game: tptg.parse("player ;")),
}


@pytest.mark.parametrize("name", FAILURES)
def test_a_paused_call_that_raises_leaves_the_collector_as_it_found_it(
    collecting, name, fig1_model, fig1_game
):
    error, call = FAILURES[name]
    with pytest.raises(error):
        call(fig1_model, fig1_game)
    assert gc.isenabled() is collecting


def test_the_collector_is_off_inside_build(monkeypatch, fig1_model, collecting):
    seen = []
    validate = tptg.semantics.validate_assumptions

    def recorded(model):
        seen.append(gc.isenabled())
        return validate(model)

    monkeypatch.setattr(tptg.semantics, "validate_assumptions", recorded)
    tptg.build(fig1_model)
    assert seen == [False]
    assert gc.isenabled() is collecting


def test_threads_calling_at_once_never_leave_the_collector_off(fig1_text):
    # the switch is process-wide: a thread that finds it off, paused by
    # another, leaves it alone, and the one that paused it switches it on
    gc.enable()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [tptg.parse(fig1_text) for _ in range(20)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert gc.isenabled()


COMMANDS = {
    **{name: args + ["--csv", "{tmp}/" + name] for name, args in SHIPPED_SWEEPS.items()},
    "check": ["check", *TASKGRAPH_CHECK],
}


@pytest.fixture
def collections():
    """How many collections the cyclic garbage collector starts from here on."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    yield started
    gc.callbacks.remove(count)


@pytest.mark.parametrize("name", COMMANDS)
def test_no_collection_runs_during_a_command(collecting, collections, name, tmp_path, capsys):
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in COMMANDS[name]]
    assert main(args) == 0
    assert collections == []
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("args, code", [
    (["check", *TASKGRAPH_CHECK, "--state-limit", "10"], 1),
    (["check", "--no-such-option"], None),
], ids=["model-error", "usage-error"])
def test_a_failing_command_leaves_the_collector_as_it_found_it(collecting, args, code, capsys):
    if code is None:  # argparse exits
        with pytest.raises(SystemExit):
            main(args)
    else:
        assert main(args) == code
        assert "state limit of 10 exceeded" in capsys.readouterr().err
    assert gc.isenabled() is collecting
