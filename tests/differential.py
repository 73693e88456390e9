"""Differential dump of solver outcomes on seeded random games.

Run as ``python tests/differential.py OUT`` on two trees and compare the two
files (or the md5 it prints): a change that must keep every outcome writes
the same bytes. ``python tests/differential.py OUT REF`` also reads REF, a
dump written by another tree, and where the two part prints the first record
that differs, with its section and key (the words that name the record, up
to its outcome), and exits 1. One line per record, its key and then its
outcome: values as hex, ``prob0``, ``prob1``, ``iterations``, ``residual``,
``converged``, strategy, warnings and ``backups`` of each ``prob_reach``
and ``expected_price`` solve, or its refusal message; the profile pair
``synthesize`` extracts from the solve's own values, or its refusal;
``bounded_expected_price`` at horizon 5; and ``check_determinacy``
brackets. Those last two come from ``tests/reference_solves.py``, which
drives the tree's solver. A second section runs a fixed list of
``tptg.cli.main`` calls in-process and records, per call, the argv, the exit
code, stdout, stderr and the bytes of every ``--json``, ``--csv`` or
``--traces`` file it writes, so a CLI refactor is checked byte for byte. It
uses the public API, the CLI and the test-side references only, so it runs
on any tree that has them.
The file name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import importlib.resources
import io
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tptg import ModelError, Move, cli, make_game  # noqa: E402
from tptg.solver import (  # noqa: E402
    DIRECTIONS,
    Objective,
    expected_price,
    prob_reach,
    synthesize,
)

from gamegen import ZERO_DELAY_CYCLE, random_game  # noqa: E402
from reference_solves import bounded_expected_price, check_determinacy  # noqa: E402

SOLVERS = (("prob-reach", prob_reach), ("exp-price", expected_price))


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _states(states) -> str:
    return "-" if states is None else ",".join(map(str, sorted(states)))


def _solve_records(key: str, game, tol: float):
    """The solve, then synthesis from its own values, per kind and direction."""
    for kind, solver in SOLVERS:
        for direction in DIRECTIONS:
            tag = f"{key} {kind} {direction} tol={tol!r}"
            try:
                r = solver(game, "goal", direction, tol)
            except ModelError as exc:
                yield tag, f"refused: {exc}"
                continue
            strategy = None if r.strategy is None else sorted(r.strategy.items())
            yield tag, (
                f"values={_hex(r.values)} prob0={_states(r.prob0)} prob1={_states(r.prob1)} "
                f"iterations={r.iterations} residual={float(r.residual).hex()} converged={r.converged} "
                f"strategy={strategy} warnings={r.warnings} backups={r.backups}"
            )
            if not r.converged:
                continue
            try:
                profiles = synthesize(game, Objective(kind, direction, "goal"), r.values, tol)
            except ModelError as exc:
                yield f"{tag} synthesize", f"refused: {exc}"
            else:
                yield f"{tag} synthesize", str(profiles)


def _bounded_records(key: str, game):
    for direction in DIRECTIONS:
        yield f"{key} bounded {direction}", _hex(bounded_expected_price(game, 'goal', 5, direction))


def _bracket_records(key: str, game, tol: float):
    for kind, _ in SOLVERS:
        for direction in DIRECTIONS:
            tag = f"{key} bracket {kind} {direction} tol={tol!r}"
            try:
                yield tag, _hex(check_determinacy(game, 'goal', kind, direction, tol))
            except ModelError as exc:
                yield tag, f"refused: {exc}"


def records():
    # seeded sets: (seeds, games per seed, max_states, min_price, max_price, tols)
    for seeds, count, size, low, high, tols in (
        (range(10, 40), 60, 6, 0, 2, (1e-12,)),
        (range(1, 11), 60, 8, 1, 5, (1e-12,)),
        (range(100, 105), 40, 10, 0, 5, (1e-12,)),
    ):
        for seed in seeds:
            rng = random.Random(seed)
            for i in range(count):
                game = random_game(rng, max_states=size, min_price=low, max_price=high)
                key = f"s{seed} g{i} n{size} p{low}-{high}"
                for tol in tols:
                    yield from _solve_records(key, game, tol)
                yield from _bounded_records(key, game)
    for acyclic in (False, True):
        for seed in range(1000, 1040):
            rng = random.Random(seed)
            for i in range(40):
                game = random_game(rng, max_states=8, min_price=0, max_price=3, acyclic=acyclic)
                key = f"s{seed} g{i} n8 p0-3 acyclic={acyclic}"
                for tol in (1e-8, 1e-12):
                    yield from _solve_records(key, game, tol)
                yield from _bounded_records(key, game)
    # the known certificate refusals at the default tolerance
    for seed, index in ((15, 10), (36, 14)):
        rng = random.Random(seed)
        for _ in range(index + 1):
            game = random_game(rng, max_states=6, min_price=0, max_price=2)
        yield from _solve_records(f"s{seed} g{index} default", game, 1e-8)
    # a zero-price choice into a dead end, priced from a caller's vector on
    # an acyclic game: the stall check must still refuse it
    dead_end = make_game(
        [[Move("a", ((1, 1.0),), 1.0)], [Move("x", ((2, 1.0),), 0.0), Move("y", ((3, 1.0),), 0.0)], [], []],
        owner=[1, 2, 1, 1], labels={"goal": {2}}, players=(1, 2),
    )
    try:
        profiles = synthesize(dead_end, Objective("exp-price", "maxmin", "goal"), [1.0, 0.0, 0.0, 0.0])
        yield "dead end synthesize", str(profiles)
    except ModelError as exc:
        yield "dead end synthesize", f"refused: {exc}"
    # determinacy brackets, alternately on acyclic games and at two tolerances
    for seed in range(200, 250):
        rng = random.Random(seed)
        for i in range(50):
            game = random_game(rng, max_states=8, min_price=0, max_price=3, acyclic=i % 2 == 1)
            yield from _bracket_records(f"s{seed} g{i} n8 p0-3", game, 1e-8 if i % 4 < 2 else 1e-10)


FIG1_PROP = ["--prop", "Pmax [ F done ] coalition {sender, medium}"]
TASKGRAPH = ["--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2"]
HONEST = ["--gen", "nonrepudiation", "--variant", "honest"]
TASKGRAPH_TIME = "Emin [ F all_done ] price time coalition {sched}"

#: (environment overrides, argv); "{fig1}" is the shipped fig1 model,
#: "{zero}" the model `ZERO_DELAY_CYCLE`, written into the call's directory,
#: and "{out}/" that directory, where the call's output files go
CLI_CALLS = (
    ({}, ["check", "{fig1}"]),
    ({}, ["check", *TASKGRAPH, "--prop", TASKGRAPH_TIME,
          "--prop", "Emin [ F all_done ] price energy coalition {sched}", "--json", "{out}/check.json"]),
    ({}, ["check", *HONEST, "--json", "{out}/check.json"]),
    ({}, ["synth", "{fig1}", "--json", "{out}/synth.json"]),
    ({}, ["synth", *TASKGRAPH, "--prop", TASKGRAPH_TIME, "--json", "{out}/synth.json"]),
    ({}, ["synth", "--gen", "nonrepudiation", "--variant", "malicious1",
          "--prop", "Pmax [ F r_gains_info ] coalition {R}", "--json", "{out}/synth.json"]),
    ({}, ["sweep", *HONEST, "--p", "1/10",
          *(arg for who in ("", "O", "R", "O, R")
            for arg in ("--prop", f"Pmax [ F terminated_ok ] coalition {{{who}}}")),
          "--param", "T", "--values", "0,4,8,12,16,20,24,28,32,36,40,48,56,64,80,100",
          "--csv", "{out}/sweep.csv"]),
    ({}, ["sweep", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--prop", TASKGRAPH_TIME,
          "--prop", "Emin [ F all_done ] price energy coalition {sched}",
          "--param", "p", "--values", "0,1/4,1/2,3/4,1", "--csv", "{out}/sweep.csv"]),
    ({}, ["sweep", "--gen", "taskgraph", "--p", "1/2", "--prop", TASKGRAPH_TIME,
          "--param", "k1", "--values", "0,1"]),
    # cyclic games reweighed row to row; at p=1 a round loses a branch
    ({}, ["sweep", *HONEST, "--param", "p", "--values", "1/100,1/10,1/2,1"]),
    # time bounds out of order and repeated, both directions
    ({}, ["sweep", *HONEST, "--p", "1/10", "--prop", "Pmax [ F terminated_ok ] coalition {O}",
          "--prop", "Pmin [ F terminated_ok ] coalition {R}",
          "--param", "T", "--values", "24,0,24,7,3,50"]),
    ({}, ["check", "--gen", "nonrepudiation", "--variant", "malicious2",
          "--prop", "Pmax [ F r_gains_info ] <= 30 coalition {R}",
          "--prop", "Pmin [ F r_gains_info ] <= 12 coalition {O}", "--json", "{out}/check.json"]),
    # a bounded expected price, infinite below some bound
    ({}, ["sweep", *TASKGRAPH, "--prop", TASKGRAPH_TIME, "--param", "T", "--values", "20,0,18,20,19"]),
    ({}, ["export-game", "{fig1}"]),
    ({}, ["export-game", *TASKGRAPH, "--price", "time", "--json", "{out}/game.json"]),
    ({}, ["validate", "{fig1}"]),
    ({}, ["simulate", "{fig1}", *FIG1_PROP, "--uniform", "--samples", "200",
          "--traces", "{out}/traces.jsonl", "--json", "{out}/simulate.json"]),
    # error paths
    ({}, ["check", "{fig1}", *FIG1_PROP, "--prop", "Pmax [ F nowhere ] coalition {sender}"]),
    ({}, ["sweep", *HONEST, "--p", "1/2", "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
          "--param", "T", "--values", "5,x"]),
    ({}, ["sweep", "--gen", "nonrepudiation", "--variant", "malicious1",
          "--prop", "Pmax [ F r_gains_info ] coalition {R}", "--param", "p", "--values", "1/10,1"]),
    ({"TPTG_STATE_LIMIT": "abc"}, ["check", "{fig1}", *FIG1_PROP]),
    ({}, ["check", "{fig1}", *FIG1_PROP, "--state-limit", "3"]),
    ({}, ["check", "{fig1}", *FIG1_PROP, "--max-iters", "0", "--json", "{out}/check.json"]),
    # rows that instantiate the model of an earlier row; at p=1 a guess has one branch
    ({}, ["sweep", "--gen", "nonrepudiation", "--variant", "malicious1",
          "--prop", "Pmax [ F r_gains_info ] coalition {R}", "--param", "p", "--values", "1/10,1/2,1"]),
    ({}, ["sweep", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--prop", TASKGRAPH_TIME,
          "--prop", "Emin [ F all_done ] price energy coalition {sched}", "--param", "p",
          "--values", ",".join(["0", *(f"{i}/20" for i in range(1, 20)), "1"])]),
    # zero-delay moves form a cycle: each row's bound is checked alone; time
    # bounds out of order and repeated, both directions
    ({}, ["sweep", "{zero}", "--prop", "Pmax [ F done ] coalition {a}", "--prop", "Pmin [ F done ] coalition {}",
          "--param", "T", "--values", "3,0,7,3,12,1", "--csv", "{out}/sweep.csv"]),
)


def _cli_records():
    fig1 = str(importlib.resources.files("tptg") / "models" / "fig1.tptg")
    for i, (env, template) in enumerate(CLI_CALLS):
        with tempfile.TemporaryDirectory() as out:
            zero = Path(out) / "zero.tptg"
            zero.write_text(ZERO_DELAY_CYCLE, encoding="utf-8")
            argv = [arg.replace("{fig1}", fig1).replace("{zero}", str(zero)).replace("{out}", out)
                    for arg in template]
            stdout, stderr = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            tag = f"cli {i}"
            yield tag, f"env={env!r} argv={template!r} exit={code}"
            yield f"{tag} stdout", repr(stdout.getvalue())
            yield f"{tag} stderr", repr(stderr.getvalue())
            for path in sorted(Path(out).iterdir()):
                if path != zero:
                    yield f"{tag} file {path.name}", repr(path.read_bytes())


SECTIONS = (("solver", records), ("cli", _cli_records))


def _excerpt(line: str, at: int) -> str:
    """Up to 160 characters of `line` around column `at`, one line."""
    return repr(line[max(0, at - 60):at + 100])


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: python tests/differential.py OUT [REF]", file=sys.stderr)
        return 2
    digest = hashlib.md5()
    count = 0
    first = None  # (section, record number, key, our line, REF's line)
    with open(argv[1], "w") as out, \
            (open(argv[2]) if len(argv) == 3 else contextlib.nullcontext()) as ref:
        for name, section in SECTIONS:
            part = hashlib.md5()
            start = count
            for key, text in section():
                line = f"{key} {text}\n"
                out.write(line)
                digest.update(line.encode())
                part.update(line.encode())
                count += 1
                if ref is not None and first is None:
                    theirs = ref.readline()
                    if theirs != line:
                        first = (name, count, key, line, theirs)
            print(f"{name}: {count - start} records, md5 {part.hexdigest()}")
        if ref is not None and first is None:
            theirs = ref.readline()
            if theirs:
                first = (SECTIONS[-1][0], count + 1, "(past the end of OUT)", "", theirs)
    print(f"{count} records, md5 {digest.hexdigest()}")
    if ref is None:
        return 0
    if first is None:
        print(f"identical to {argv[2]}")
        return 0
    name, number, key, ours, theirs = first
    at = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
    print(f"first difference: section {name}, record {number}, key {key!r}, column {at}")
    print(f"  OUT: {_excerpt(ours, at) if ours else '(no record)'}")
    print(f"  REF: {_excerpt(theirs, at) if theirs else '(no record)'}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
