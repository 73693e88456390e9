import hashlib
import importlib.resources
import json
import pathlib

import pytest

from tptg import cli
from tptg.cli import main


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
    code = main([
        "sweep", fig1_file, "--param", "p", "--values", "0.1",
        "--prop", "Pmax [ F done ] coalition {sender}",
    ])
    assert code == 1


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
        "374ce27204c3beefffa3345e339e4ad8089ba4409ea448266226cda5f708f72c",
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


def test_simulate_without_strategy_errors(capsys):
    code = main([
        "simulate", "--gen", "taskgraph",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--samples", "10",
    ])
    assert code == 1


def test_simulate_zero_samples_usage_error(fig1_file):
    code = main([
        "simulate", fig1_file, "--uniform", "--samples", "0",
        "--prop", "Pmax [ F done ] coalition {sender, medium}",
    ])
    assert code == 1


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
