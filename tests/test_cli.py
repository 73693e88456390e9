import hashlib
import importlib.resources
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from tptg import cli, semantics
from tptg.cli import main

from gamegen import ZERO_DELAY_CYCLE


@pytest.fixture()
def fig1_file(tmp_path, fig1_text):
    path = tmp_path / "fig1.tptg"
    path.write_text(fig1_text, encoding="utf-8")
    return str(path)


def test_check_model_file(fig1_file, capsys):
    code = main(["check", fig1_file, "--prop", "Pmax [ F done ] coalition {sender, medium}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Pmax[F done]" in out
    value = float(out.split("=")[1].split("(")[0])
    assert 0.0 <= value <= 1.0


def test_check_taskgraph_headline(capsys):
    code = main([
        "check", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "18.000000" in out


def test_check_uses_model_props(fig1_file, capsys):
    assert main(["check", fig1_file]) == 0
    out = capsys.readouterr().out
    assert out.count("=") >= 3  # the three shipped properties


def test_check_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.tptg"
    bad.write_text("player p;\nclock x;\nautomaton a { init l; location l { inv x < 1; } }\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "3:" in err  # line number of the strict inequality


def test_check_writes_json(fig1_file, tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code = main([
        "check", fig1_file,
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
        "--json", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload[0]["converged"] is True
    assert 0.0 <= payload[0]["value"] <= 1.0
    assert payload[0]["strategy"]


def test_check_json_records_each_property_objective(tmp_path):
    # nonrep honest's own properties: a time-bounded probability, then an
    # expected price under the time structure
    out_path = tmp_path / "results.json"
    assert main(["check", "--gen", "nonrepudiation", "--variant", "honest",
                 "--json", str(out_path)]) == 0
    objectives = [record["objective"] for record in json.loads(out_path.read_text())]
    assert objectives == [
        {"kind": "prob-reach", "direction": "maxmin", "target": "terminated_ok_by_24",
         "horizon": None, "price": None},
        {"kind": "exp-price", "direction": "minmax", "target": "terminated_ok",
         "horizon": None, "price": "time"},
    ]


def test_sweep_T_monotone(capsys):
    code = main([
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/2",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
        "--param", "T", "--values", "0,5,10,20",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("T,")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    assert len(values) == 4


def test_sweep_T_elaborates_once(monkeypatch, capsys):
    calls = []
    elaborate = cli.to_tptg
    monkeypatch.setattr(cli, "to_tptg", lambda source: calls.append(1) or elaborate(source))
    code = main([
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/2",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
        "--param", "T", "--values", "0,5,10",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4
    assert len(calls) == 1


def test_sweep_p_requires_gen(fig1_file, capsys):
    # checked before the rows, so an empty --values list is refused too
    for values in ("0.1", ""):
        code = main([
            "sweep", fig1_file, "--param", "p", "--values", values,
            "--prop", "Pmax [ F done ] coalition {sender}",
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: sweeping p needs --gen\n"
    # the fault budgets are taskgraph parameters; nonrepudiation has none
    for param in ("k1", "k2"):
        for values in ("0,1,2", ""):
            code = main([
                "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/10",
                "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
                "--param", param, "--values", values,
            ])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: sweeping {param} needs --gen taskgraph\n"


def test_sweep_empty_values_header_only(capsys):
    code = main([
        "sweep", "--gen", "taskgraph",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--param", "p", "--values", "",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().count("\n") == 0  # just the header


def test_sweep_csv_is_deterministic(tmp_path):
    args = [
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/2",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
        "--param", "T", "--values", "0,4,8",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == 0
    assert main(args + ["--csv", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


#: sha256 of `tptg synth --json` output; strategies are part of the
#: determinism contract, so these move only by a recorded decision
PINNED_SYNTH = [
    ([str(importlib.resources.files("tptg") / "models" / "fig1.tptg")],
     "d9fa12eeee045172d813d2e8436039fecb156f6dfb0a795a656e23d385a90d2d"),
    (
        ["--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2",
         "--prop", "Emin [ F all_done ] price time coalition {sched}"],
        "b3ea2ee6437afbe6b49609125aa0eb6fad0f11994e2f82cd19c6279c7bf09887",
    ),
    (
        ["--gen", "nonrepudiation", "--variant", "malicious1",
         "--prop", "Pmax [ F r_gains_info ] coalition {R}"],
        "aa634e5549dbd2dad81c9d3c3985fd85eb4bc52c74f9ede15791775142afd5da",
    ),
]


def test_synth_json_bytes_are_pinned(tmp_path):
    for args, digest in PINNED_SYNTH:
        out = tmp_path / "synth.json"
        assert main(["synth", *args, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args


@pytest.mark.parametrize("model_args, prop, warnings", [
    (["--gen", "nonrepudiation", "--variant", "malicious1"], "Pmax [ F r_gains_info ] coalition {R}",
     ["3 non-target deadlock state(s) treated as probability 0"]),
    (["--gen", "taskgraph", "--k1", "1", "--k2", "1"], "Emin [ F all_done ] <= 5 price time coalition {sched}",
     ["8 non-target deadlock state(s) treated as infinite price",
      "7891 state(s) cannot be forced to reach the target almost surely; their expected price is infinite"]),
], ids=["malicious1", "taskgraph-1-1"])
def test_synth_prints_the_solves_warnings_as_check_does(model_args, prop, warnings, capsys):
    for command in ("check", "synth"):
        assert main([command, *model_args, "--prop", prop]) == 0
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings), command


SHIPPED_SWEEPS = {
    "honest_termination_by_T.csv": [
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/10",
        "--prop", "Pmax [ F terminated_ok ] coalition {}",
        "--prop", "Pmax [ F terminated_ok ] coalition {O}",
        "--prop", "Pmax [ F terminated_ok ] coalition {R}",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
        "--param", "T",
        "--values", "0,4,8,12,16,20,24,28,32,36,40,48,56,64,80,100",
    ],
    "taskgraph_expected_by_p.csv": [
        "sweep", "--gen", "taskgraph", "--k1", "1", "--k2", "1",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--prop", "Emin [ F all_done ] price energy coalition {sched}",
        "--param", "p", "--values", "0,1/4,1/2,3/4,1",
    ],
}


def test_shipped_csvs_regenerate_exactly(tmp_path):
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    for name, args in SHIPPED_SWEEPS.items():
        regenerated = tmp_path / name
        assert main(args + ["--csv", str(regenerated)]) == 0
        assert regenerated.read_bytes() == (results / name).read_bytes(), name


def test_shipped_csvs_regenerate_exactly_under_python_O(tmp_path):
    # `python -O` drops assert statements: no check the sweeps need may be one
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    for name, args in SHIPPED_SWEEPS.items():
        regenerated = tmp_path / name
        subprocess.run(
            [sys.executable, "-O", "-m", "tptg.cli", *args, "--csv", str(regenerated)],
            capture_output=True, env=env, check=True,
        )
        assert regenerated.read_bytes() == (results / name).read_bytes(), name


def test_sweep_p_taskgraph_monotone_via_cli(capsys):
    code = main([
        "sweep", "--gen", "taskgraph", "--k1", "1", "--k2", "1",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--param", "p", "--values", "0,1/2,1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert values == sorted(values)


def test_synth_then_simulate_round_trip(tmp_path, capsys):
    strategy_path = tmp_path / "strategy.json"
    code = main([
        "synth", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--json", str(strategy_path),
    ])
    assert code == 0
    payload = json.loads(strategy_path.read_text())
    assert payload["value"] == pytest.approx(18.0, abs=1e-6)

    traces = tmp_path / "trace.jsonl"
    code = main([
        "simulate", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--strategy", str(strategy_path),
        "--samples", "200", "--seed", "7", "--traces", str(traces),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "probability = 1" in out
    assert "# seed=7" in out
    steps = [json.loads(line) for line in traces.read_text().splitlines()]
    assert steps and steps[0]["step"] == 0
    assert set(steps[0]) == {"step", "state", "action", "duration", "price"}


@pytest.mark.parametrize("bound", [10, 4])
def test_synth_then_simulate_round_trip_on_a_time_bound(fig1_file, tmp_path, bound, capsys):
    # fig1 ships the bound 10 (value 1); at 4 the value is 3/4. The strategy
    # is keyed by the states of the game `bound_time` derives
    prop = f"Pmax [ F done ] <= {bound} coalition {{sender, medium}}"
    strategy_path = tmp_path / "strategy.json"
    assert main(["synth", fig1_file, "--prop", prop, "--json", str(strategy_path)]) == 0
    value = json.loads(strategy_path.read_text())["value"]
    outcome_path = tmp_path / "outcome.json"
    code = main([
        "simulate", fig1_file, "--prop", prop, "--strategy", str(strategy_path),
        "--samples", "2000", "--seed", "7", "--json", str(outcome_path),
    ])
    capsys.readouterr()
    assert code == 0
    outcome = json.loads(outcome_path.read_text())
    assert outcome["censored"] == 0
    assert abs(outcome["probability"] - value) <= outcome["probability_ci99"]


def test_simulate_without_strategy_errors(capsys):
    code = main([
        "simulate", "--gen", "taskgraph",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--samples", "10",
    ])
    assert code == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json {", "is not JSON"),
        ('{"value": 1.0}', "has no 'strategy' key"),
        ('[{"state": "0", "action": "(1,send)"}]', "unknown state '0'"),
        ('[{"state": true, "action": "(1,quick)"}]', "unknown state True"),  # not state 1
    ],
    ids=["not-json", "no-strategy-key", "string-state", "boolean-state"],
)
def test_simulate_malformed_strategy_file_errors(fig1_file, tmp_path, capsys, text, message):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(text)
    code = main([
        "simulate", fig1_file, "--strategy", str(strategy), "--samples", "10",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: strategy") and message in err


def test_simulate_zero_samples_usage_error(fig1_file):
    code = main([
        "simulate", fig1_file, "--uniform", "--samples", "0",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    assert code == 1


def test_simulate_negative_max_steps_usage_error(fig1_file, capsys):
    code = main([
        "simulate", fig1_file, "--uniform", "--max-steps", "-3",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the step bound must be at least 0, not -3\n"
    assert captured.out == ""  # the run header comes after the bound is checked


def test_simulate_uniform(fig1_file, capsys):
    code = main([
        "simulate", fig1_file, "--uniform", "--samples", "500",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "probability" in out


def test_export_game(fig1_file, tmp_path):
    out_path = tmp_path / "game.json"
    assert main(["export-game", fig1_file, "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["stats"]["states"] == len(payload["game"]["states"])
    assert payload["game"]["transitions"][0]["branches"][0]["prob"]


def test_check_nonconvergence_exit_code(fig1_file, capsys):
    code = main([
        "check", fig1_file, "--max-iters", "0",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "converged=false" in out


def test_validate_ok(fig1_file, capsys):
    assert main(["validate", fig1_file]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_unbounded(tmp_path, capsys):
    bad = tmp_path / "unbounded.tptg"
    bad.write_text(
        "player p;\nclock x;\nautomaton a { init l; location l { inv true; } }\n"
        "owner { * -> p; }\n"
    )
    code = main(["validate", str(bad)])
    assert code == 1
    assert "unbounded invariant" in capsys.readouterr().err


def test_validate_counts_reachable_product_locations(capsys):
    assert main(["validate", "--gen", "taskgraph", "--k1", "1", "--k2", "1"]) == 0
    assert capsys.readouterr().out == "ok: 515 locations, 2 clocks, 2 players\n"


def test_validate_ignores_unreachable_product_locations(tmp_path, capsys):
    # b alone reaches m2, whose invariant leaves y unbounded, but in the
    # product a never offers a second `sync`, so no pair with m2 is reachable
    model = tmp_path / "blocked.tptg"
    model.write_text(
        "player p;\nclock x, y;\n"
        "automaton a {\n  init l0;\n"
        "  location l0 { inv x <= 1; [sync] x >= 1 -> 1: {x} & l1; }\n"
        "  location l1 { inv x <= 1; }\n}\n"
        "automaton b {\n  init m0;\n"
        "  location m0 { inv y <= 1; [sync] true -> 1: {} & m1; }\n"
        "  location m1 { inv y <= 1; [sync] true -> 1: {} & m2; }\n"
        "  location m2 { inv true; }\n}\n"
        "compose a || b;\nowner { * -> p; }\n"
    )
    assert main(["validate", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "ok: 2 locations, 2 clocks, 1 players\n"
    assert "unbounded" not in captured.err


def test_state_limit_flag(fig1_file, capsys):
    code = main([
        "check", fig1_file, "--state-limit", "3",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    assert code == 1
    assert "state limit" in capsys.readouterr().err


def test_state_limit_env(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("TPTG_STATE_LIMIT", "3")
    code = main([
        "check", fig1_file,
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    assert code == 1
    assert "state limit" in capsys.readouterr().err


def _count_builds(monkeypatch) -> list:
    calls = []
    build = cli.build
    monkeypatch.setattr(cli, "build", lambda *a, **k: calls.append(1) or build(*a, **k))
    return calls


def test_shipped_sweeps_build_once_per_model(monkeypatch, tmp_path):
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    # one model for 16 values of T, whose game every bound is solved on;
    # 5 values of p, of which 1/2 and 3/4 reweigh the game of the row before
    for name, builds in (("honest_termination_by_T.csv", 1), ("taskgraph_expected_by_p.csv", 3)):
        calls = _count_builds(monkeypatch)
        regenerated = tmp_path / name
        assert main(SHIPPED_SWEEPS[name] + ["--csv", str(regenerated)]) == 0
        assert len(calls) == builds, name
        assert regenerated.read_bytes() == (results / name).read_bytes(), name


def test_a_p_sweep_reweighs_the_games_of_the_row_before(monkeypatch, capsys):
    # the honest model's two properties, one time-bounded, one priced,
    # share one cache; p=1/100 builds the first game, 1/10 and 1/2 reweigh the
    # games of the row before, and p=1, whose rounds lose a branch, builds
    honest = ["sweep", "--gen", "nonrepudiation", "--variant", "honest", "--param", "p"]
    values = ["1/100", "1/10", "1/2", "1"]
    rows = []
    for value in values:  # each alone, on a fresh cache
        assert main(honest + ["--values", value]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1])
    calls, caches = [], []
    property_game, build = cli.property_game, cli.build

    def record(model, prop, state_limit, games=None):
        caches.append(games)
        objective, game = property_game(model, prop, state_limit, games)
        # at most one held game per price structure and one derived game
        prices = [held.origin[1] for held in games.values() if held.origin is not None]
        assert len(prices) == len(set(prices))
        assert len(games) - len(prices) <= 1
        return objective, game

    def counted(model, *args, **kwargs):
        # none of another model is held when a game is built
        assert all(held.origin is not None and held.origin[0] is model for held in caches[-1].values())
        calls.append(1)
        return build(model, *args, **kwargs)

    monkeypatch.setattr(cli, "property_game", record)
    monkeypatch.setattr(cli, "build", counted)
    assert main(honest + ["--values", ",".join(values)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows
    assert len(calls) == 2 and len(caches) == 2 * len(values)
    assert len({id(games) for games in caches}) == 1  # one cache, carried across rows


def test_a_p_sweep_holds_no_game_of_the_model_before_a_build(monkeypatch, tmp_path):
    # neither the game cache nor the row loop keeps a game of the row
    # before, held or viewed, alive when a row builds: at p=1, the p=3/4
    # row's reweighed games and their views are freed
    refs, builds = [], []  # (model, weak reference) per game made or viewed
    property_game, reweigh, build = cli.property_game, cli.reweigh, cli.build

    def viewed(model, *args, **kwargs):
        objective, game = property_game(model, *args, **kwargs)
        refs.append((model, weakref.ref(game)))
        return objective, game

    def reweighed(game, model, *args, **kwargs):
        result = reweigh(game, model, *args, **kwargs)
        if result is not None:
            refs.append((model, weakref.ref(result)))
        return result

    def built(model, *args, **kwargs):
        others = [ref for held_model, ref in refs if held_model is not model]
        builds.append((len(others), sum(ref() is not None for ref in others)))
        game = build(model, *args, **kwargs)
        refs.append((model, weakref.ref(game)))
        return game

    monkeypatch.setattr(cli, "property_game", viewed)
    monkeypatch.setattr(cli, "reweigh", reweighed)
    monkeypatch.setattr(cli, "build", built)
    taskgraph = SHIPPED_SWEEPS["taskgraph_expected_by_p.csv"]
    assert main(taskgraph + ["--csv", str(tmp_path / "taskgraph.csv")]) == 0
    # p=0, 1/4 and 1 build; before p=1, the rows 0 to 3/4 made 16 games
    assert [alive for _, alive in builds] == [0, 0, 0]
    assert builds[2][0] == 16


def test_a_p_sweep_holds_no_game_while_it_elaborates_a_row(monkeypatch, tmp_path):
    # a row whose text differs in more than constant values goes through the
    # front end with no game held: at p=1/4 the p=0 games, and at p=1 the
    # p=3/4 games, are freed before `to_tptg` runs
    refs, elaborations = [], []  # a weak reference per game built or reweighed
    build, reweigh, to_tptg = cli.build, cli.reweigh, cli.to_tptg

    def made(make):
        def recorded(*args, **kwargs):
            game = make(*args, **kwargs)
            if game is not None:
                refs.append(weakref.ref(game))
            return game
        return recorded

    def elaborated(source, *args, **kwargs):
        elaborations.append(sum(ref() is not None for ref in refs))
        return to_tptg(source, *args, **kwargs)

    monkeypatch.setattr(cli, "build", made(build))
    monkeypatch.setattr(cli, "reweigh", made(reweigh))
    monkeypatch.setattr(cli, "to_tptg", elaborated)
    taskgraph = SHIPPED_SWEEPS["taskgraph_expected_by_p.csv"]
    assert main(taskgraph + ["--csv", str(tmp_path / "taskgraph.csv")]) == 0
    assert elaborations == [0, 0, 0]  # p=0, 1/4 and 1
    assert len(refs) == 10  # 3 builds, 7 reweighs


def _count_calls(monkeypatch, *names) -> dict:
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_a_check_reuses_the_held_game_of_each_price(monkeypatch, capsys):
    # the third property, priced as the first, reuses the held `time` game
    taskgraph = ["check", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2"]
    props = [f"Emin [ F all_done ] price {price} coalition {{sched}}" for price in ("time", "energy", "time")]
    alone = []
    for prop in props:
        assert main(taskgraph + ["--prop", prop]) == 0
        alone.append(capsys.readouterr().out)
    calls = _count_calls(monkeypatch, "build", "reweigh")
    assert main(taskgraph + [arg for prop in props for arg in ("--prop", prop)]) == 0
    assert capsys.readouterr().out == "".join(alone)
    assert calls == {"build": 1, "reweigh": 1}


TWENTY_ONE_PS = ",".join(["0", *(f"{i}/20" for i in range(1, 20)), "1"])


def test_a_p_sweep_runs_the_front_end_three_times(monkeypatch, tmp_path, capsys):
    # the model's parse, then p=0, the first interior p and p=1, whose
    # texts differ in more than the constant p; p=1 is the model's own
    # text, parsed already; every other row instantiates the held model
    taskgraph = SHIPPED_SWEEPS["taskgraph_expected_by_p.csv"]
    for values in ("0,1/4,1/2,3/4,1", TWENTY_ONE_PS):
        argv = [arg if arg != "0,1/4,1/2,3/4,1" else values for arg in taskgraph]
        calls = _count_calls(monkeypatch, "parse", "to_tptg", "instantiate", "build")
        assert main(argv + ["--csv", str(tmp_path / "sweep.csv")]) == 0
        rows = len(values.split(","))
        assert calls == {"parse": 3, "to_tptg": 3, "instantiate": rows - 3, "build": 3}, values
    # each cell of the 21-value sweep equals a check of its row alone
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    props = ["Emin [ F all_done ] price time coalition {sched}", "Emin [ F all_done ] price energy coalition {sched}"]
    assert len(rows) == 22 and all(prop in taskgraph for prop in props)
    for row in rows[1:]:
        p, *cells = row.split(",")
        out = tmp_path / "check.json"
        assert main(["check", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", p,
                     *(arg for prop in props for arg in ("--prop", prop)), "--json", str(out)]) == 0
        assert cells == [f"{record['value']:.10g}" for record in json.loads(out.read_text())], p
    capsys.readouterr()


def test_every_game_a_p_sweep_holds_equals_its_build(monkeypatch, tmp_path):
    # the 21-value sweep reweighs 36 of its 42 games; each held game equals
    # the build of its model and price, down to the float bits
    checked = {}
    property_game = cli.property_game

    def record(model, prop, state_limit, games=None):
        result = property_game(model, prop, state_limit, games)
        for game in games.values():
            held_model, price = game.origin
            if id(game) not in checked:
                checked[id(game)] = game  # kept, so that no id is reused
                expected = semantics.build(held_model, price=price)
                assert game == expected
                assert [[repr(m) for m in ms] for ms in game.moves] == [
                    [repr(m) for m in ms] for ms in expected.moves
                ]
        return result

    monkeypatch.setattr(cli, "property_game", record)
    taskgraph = SHIPPED_SWEEPS["taskgraph_expected_by_p.csv"]
    argv = [arg if arg != "0,1/4,1/2,3/4,1" else TWENTY_ONE_PS for arg in taskgraph]
    assert main(argv + ["--csv", str(tmp_path / "sweep.csv")]) == 0
    assert len(checked) == 42


def test_a_T_sweep_heads_each_column_with_its_property_unbounded(capsys):
    # the model's own properties, one bounded at 24: each row sets the bound
    nonrep = ["sweep", "--gen", "nonrepudiation", "--param", "T", "--values", "4,30"]
    assert main(nonrep) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "T,Pmax[F terminated_ok] {O,R},Emin[F terminated_ok] price time {O,R}"
    assert main(nonrep + ["--prop", "Pmax [ F terminated_ok ] coalition {O, R}"]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert alone[0] == "T,Pmax[F terminated_ok] {O,R}"
    assert [row.split(",")[:2] for row in rows[1:]] == [row.split(",") for row in alone[1:]]


def test_a_sweep_checks_prerequisites_only_where_it_builds(monkeypatch, tmp_path):
    # reweigh runs no prerequisite check, so each sweep checks once per build
    calls = []
    check = semantics.validate_assumptions
    monkeypatch.setattr(semantics, "validate_assumptions", lambda m: calls.append(1) or check(m))
    taskgraph = SHIPPED_SWEEPS["taskgraph_expected_by_p.csv"]
    assert main(taskgraph + ["--csv", str(tmp_path / "taskgraph.csv")]) == 0
    assert len(calls) == 3
    calls.clear()
    assert main([
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--param", "p",
        "--values", "1/100,1/10,1/2,1", "--csv", str(tmp_path / "honest.csv"),
    ]) == 0
    assert len(calls) == 2


def test_check_fig1_builds_once(monkeypatch, capsys):
    calls = _count_builds(monkeypatch)
    fig1 = str(importlib.resources.files("tptg") / "models" / "fig1.tptg")
    assert main(["check", fig1]) == 0
    assert len(calls) == 1  # the time-bounded property's game is derived from it
    assert capsys.readouterr().out == (
        "Pmax[F done] {sender,medium} = 1.000000 (converged=true, iterations=1, states=142)\n"
        "Pmax[F done]<=10 {sender,medium} = 1.000000 (converged=true, iterations=1, states=142)\n"
        "Pmin[F done] {} = 1.000000 (converged=true, iterations=1, states=142)\n"
    )


def test_honest_T_sweep_cells_equal_one_property_checks(tmp_path):
    """Sharing a game between properties must not make a value depend on its
    neighbours: each cell equals a check of that property alone."""
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    sweep = SHIPPED_SWEEPS["honest_termination_by_T.csv"]
    props = [sweep[i + 1] for i, arg in enumerate(sweep) if arg == "--prop"]
    rows = (results / "honest_termination_by_T.csv").read_text().splitlines()[1:]
    assert len(rows) == 16 and len(props) == 4
    model_args = sweep[1:sweep.index("--prop")]
    out = tmp_path / "cell.json"
    for bound, *cells in (row.split(",") for row in rows):
        for prop, cell in zip(props, cells, strict=True):
            bounded = prop.replace("] coalition", f"] <= {bound} coalition")
            assert main(["check", *model_args, "--prop", bounded, "--json", str(out)]) == 0
            (record,) = json.loads(out.read_text())
            assert f"{record['value']:.10g}" == cell, (bound, prop)


FIG1 = str(importlib.resources.files("tptg") / "models" / "fig1.tptg")


def _check_value(model_args, prop, bound, out) -> float:
    """The value `check` gives `prop` with the time bound `bound` alone."""
    bounded = prop.replace("] ", f"] <= {bound} ", 1)
    assert main(["check", *model_args, "--prop", bounded, "--json", str(out)]) == 0
    (record,) = json.loads(out.read_text())
    return record["value"]


@pytest.mark.parametrize("model_args, prop, values", [
    ([FIG1], "Pmax [ F done ] coalition {sender}", "24,0,24,7"),
    (["--gen", "nonrepudiation", "--variant", "malicious1"],
     "Pmax [ F r_gains_info ] coalition {R}", "24,0,24,7"),
    # infinite below some bound
    (["--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2"],
     "Emin [ F all_done ] price time coalition {sched}", "18,0,17,18"),
    # s -> u -> s at delay 0 keeps the elapsed time: no induction over the
    # budget, and each row's game has cyclic SCCs to iterate
    (["{zero}"], "Pmax [ F done ] coalition {a}", "3,0,7,3,12,1"),
    (["{zero}"], "Pmin [ F done ] coalition {}", "3,0,7,3,12,1"),
], ids=["fig1", "malicious1", "taskgraph", "zero-delay-cycle-Pmax", "zero-delay-cycle-Pmin"])
def test_a_T_sweep_cell_equals_a_check_of_its_bound_alone(model_args, prop, values, tmp_path, capsys):
    # one induction over the budget, or one check per row, serves every row,
    # whatever their order
    zero = tmp_path / "zero.tptg"
    zero.write_text(ZERO_DELAY_CYCLE)
    model_args = [str(zero) if arg == "{zero}" else arg for arg in model_args]
    assert main(["sweep", *model_args, "--prop", prop, "--param", "T", "--values", values]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [bound for bound, _ in rows] == values.split(",")
    checked, iterations = {}, []
    for bound, _ in rows:
        checked[bound] = _check_value(model_args, prop, bound, tmp_path / "cell.json")
        iterations.append(json.loads((tmp_path / "cell.json").read_text())[0]["iterations"])
    for bound, cell in rows:
        assert cell == f"{checked[bound]:.10g}", bound
    assert any(cell == "inf" for _, cell in rows) == (prop[0] == "E")
    if str(zero) in model_args:
        assert max(iterations) > 1  # some bound's game has a cycle to iterate


def test_a_zero_delay_cycle_T_sweep_holds_one_derived_game_at_a_time(monkeypatch, tmp_path):
    # the two properties share target and price, so each row derives one
    # game, and neither the cache nor the row loop keeps the row before's
    # derived game, held or viewed, alive when the next is derived
    model = tmp_path / "zero.tptg"
    model.write_text(ZERO_DELAY_CYCLE)
    refs, alive = [], []  # weak references to derived games and their views
    property_game, bound_time = cli.property_game, cli.bound_time

    def viewed(model, prop, *args, **kwargs):
        objective, game = property_game(model, prop, *args, **kwargs)
        if prop.bound is not None:
            refs.append(weakref.ref(game))
        return objective, game

    def derived(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        game = bound_time(*args, **kwargs)
        refs.append(weakref.ref(game))
        return game

    monkeypatch.setattr(cli, "property_game", viewed)
    monkeypatch.setattr(cli, "bound_time", derived)
    assert main([
        "sweep", str(model), "--prop", "Pmax [ F done ] coalition {a}", "--prop", "Pmin [ F done ] coalition {}",
        "--param", "T", "--values", "3,0,7,3,12,1", "--csv", str(tmp_path / "sweep.csv"),
    ]) == 0
    assert alive == [0] * 6  # one derivation per row, the row before's freed
    assert len(refs) == 6 + 2 * 6  # and a view per property and row


@pytest.mark.parametrize("values, message", [
    ("5,-1", "time bound must be non-negative"),
    ("5,x", "T must be an integer, not 'x'"),
    ("-1,x", "time bound must be non-negative"),
    ("x,-1", "T must be an integer, not 'x'"),
])
def test_a_T_sweep_reports_the_first_refused_row(values, message, capsys):
    code = main([
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/2",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}", "--param", "T", f"--values={values}",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_prints_earlier_results_before_an_unknown_label(fig1_file, capsys):
    code = main([
        "check", fig1_file,
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
        "--prop", "Pmax [ F nowhere ] coalition {sender}",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == (
        "Pmax[F done] {sender,medium} = 1.000000 (converged=true, iterations=1, states=142)\n"
    )
    assert captured.err.endswith("error: property targets unknown label 'nowhere'\n")


def test_sweep_T_rejects_a_non_integer_value(capsys):
    code = main([
        "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/2",
        "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
        "--param", "T", "--values", "5,x",
    ])
    assert code == 1
    assert "error: T must be an integer, not 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["k1", "k2"])
def test_sweep_k_rejects_a_non_integer_value(param, capsys):
    code = main([
        "sweep", "--gen", "taskgraph",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--param", param, "--values", "1.5",
    ])
    assert code == 1
    assert f"error: {param} must be an integer, not '1.5'" in capsys.readouterr().err


def test_sweep_k1_rebuilds_the_generator_per_value(capsys):
    args = [
        "sweep", "--gen", "taskgraph", "--p", "1/2",
        "--prop", "Emin [ F all_done ] price time coalition {sched}", "--param", "k1",
    ]
    assert main(args + ["--values", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,12", "1,13.5"]
    assert main(args + ["--values", "x"]) == 1
    assert "error: k1 must be an integer, not 'x'" in capsys.readouterr().err


def test_non_rational_p_is_a_model_error(capsys):
    prop = ["--prop", "Emin [ F all_done ] price time coalition {sched}"]
    assert main(["check", "--gen", "taskgraph", "--p", "half", *prop]) == 1
    assert "error: p must be a rational number, not 'half'" in capsys.readouterr().err
    assert main(["sweep", "--gen", "taskgraph", *prop, "--param", "p", "--values", "1/0"]) == 1
    assert "error: p must be a rational number, not '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_a_negative_or_nan_tolerance_is_a_model_error(fig1_file, tol, capsys):
    code = main(["check", fig1_file, "--tol", tol, "--prop", "Pmax [ F done ] coalition {sender, medium}"])
    assert code == 1
    assert "error: tolerance must be a finite number >= 0, not " in capsys.readouterr().err


def test_state_limit_env_must_be_an_integer(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("TPTG_STATE_LIMIT", "abc")
    code = main(["check", fig1_file, "--prop", "Pmax [ F done ] coalition {sender, medium}"])
    assert code == 1
    assert "error: TPTG_STATE_LIMIT must be an integer, not 'abc'" in capsys.readouterr().err


def test_a_state_limit_flag_below_1_is_a_model_error(fig1_file, capsys):
    code = main(["check", fig1_file, "--state-limit", "-5", "--prop", "Pmax [ F done ] coalition {sender, medium}"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: state limit must be at least 1, not -5\n")


def test_a_state_limit_env_below_1_is_a_model_error(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("TPTG_STATE_LIMIT", "0")
    code = main(["check", fig1_file, "--prop", "Pmax [ F done ] coalition {sender, medium}"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: state limit must be at least 1, not 0\n")
