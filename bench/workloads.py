"""The benchmark's workloads: each is a fixed job plus the check of its output.

A job is what one pass times. Building the job (reading the reference,
generating games) is set-up and is not timed as part of the pass. Checking
runs after the timer stops. Every query of a job is checked against a
reference that does not come from tptg's own solver.
"""

import contextlib
import io
import random
from pathlib import Path

# The two shipped sweeps (the commands that regenerate results/*.csv).
SWEEPS = {
    "taskgraph-p-sweep": (
        "taskgraph_expected_by_p.csv",
        [
            "sweep", "--gen", "taskgraph", "--k1", "1", "--k2", "1",
            "--prop", "Emin [ F all_done ] price time coalition {sched}",
            "--prop", "Emin [ F all_done ] price energy coalition {sched}",
            "--param", "p", "--values", "0,1/4,1/2,3/4,1",
        ],
    ),
    "nonrep-T-sweep": (
        "honest_termination_by_T.csv",
        [
            "sweep", "--gen", "nonrepudiation", "--variant", "honest", "--p", "1/10",
            "--prop", "Pmax [ F terminated_ok ] coalition {}",
            "--prop", "Pmax [ F terminated_ok ] coalition {O}",
            "--prop", "Pmax [ F terminated_ok ] coalition {R}",
            "--prop", "Pmax [ F terminated_ok ] coalition {O, R}",
            "--param", "T",
            "--values", "0,4,8,12,16,20,24,28,32,36,40,48,56,64,80,100",
        ],
    ),
}
#: Solver only, on seeded cyclic games with planted values. It is not listed
#: in BENCHMARK.json: tptg fails its ring games on every seed (the certificate
#: raises, or values stop about 1e-6 off the planted ones, because value
#: iteration stops on a small residual). It stays runnable by name so that the
#: failure shows until the solver is fixed.
SOLVE = "random-cyclic-solve"
WORKLOADS = (*SWEEPS, SOLVE)

#: random-cyclic-solve mix: (kind, states, ring arc) per game
SOLVE_MIX = (("ring", 200, 100), ("ring", 200, 100), ("expander", 1000, None), ("expander", 1000, None))

#: allowed |value - planted value|, relative to max(1, |planted value|): the
#: accuracy the acceptance suite asks of the headline value at the default
#: solver tolerance 1e-8
VALUE_TOL = 1e-6


class SweepJob:
    """One `tptg sweep` command, whose CSV must equal the shipped one byte for byte."""

    def __init__(self, name: str, root: Path):
        from tptg import cli

        self.main = cli.main
        csv_name, self.args = SWEEPS[name]
        self.reference_path = f"results/{csv_name}"
        self.reference = (root / self.reference_path).read_text(encoding="utf-8")
        self.outcome = None

    def run(self):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.main(list(self.args))
            self.outcome = (code, out.getvalue(), None)
        except Exception as exc:  # a crash fails every query of the pass
            self.outcome = (None, out.getvalue(), f"{type(exc).__name__}: {exc}")

    def check(self) -> tuple[int, list[str], dict[str, bool]]:
        """(queries attempted, failures, reference checks)."""
        code, text, error = self.outcome
        want = [line.split(",") for line in self.reference.splitlines()]
        queries = [(row[0], col) for row in want[1:] for col in want[0][1:]]
        identical = text == self.reference
        checks = {
            "exit code 0": code == 0,
            f"CSV byte-identical to {self.reference_path}": identical,
        }
        if error is not None or code != 0:
            reason = error or f"exit code {code}"
            return len(queries), [f"{p} / {c}: {reason}" for p, c in queries], checks
        got = [line.split(",") for line in text.splitlines()]
        failures = []
        if not got or got[0] != want[0]:
            failures.append(f"header differs: {got[0] if got else None!r}")
        cells = {}
        for row in got[1:]:
            for col, cell in zip(want[0][1:], row[1:]):
                cells[(row[0], col)] = cell
        for row in want[1:]:
            for col, cell in zip(want[0][1:], row[1:]):
                value = cells.get((row[0], col))
                if value != cell:
                    failures.append(f"{want[0][0]}={row[0]} / {col}: got {value}, want {cell}")
        if not identical and not failures:
            failures.append("CSV differs outside the value cells")
        return len(queries), failures, checks


class SolveJob:
    """`tptg.solve` (values, synthesis, certificate) on seeded random games.

    The games come from `games.py`, which plants their optimal values; each
    solve must converge, synthesize a strategy, and match the planted values
    at every state within `VALUE_TOL`.
    """

    def __init__(self, seed: int):
        import games
        import tptg

        self.tptg = tptg
        rng = random.Random(seed)
        self.games = []
        for i, (kind, n, arc) in enumerate(SOLVE_MIX):
            if kind == "ring":
                game, objective, values = games.ring_pmax(rng, n, arc)
            else:
                game, objective, values = games.expander_emin(rng, n)
            self.games.append((f"{kind}{i}", game, objective, values))
        self.results = []

    def run(self):
        results = []
        for _, game, objective, _ in self.games:
            try:
                # looked up per call, so that a traced pass sees the wrapper
                results.append(self.tptg.solve(game, objective))
            except Exception as exc:  # certificate and model errors fail the query
                results.append(f"{type(exc).__name__}: {exc}")
        self.results = results

    def check(self) -> tuple[int, list[str], dict[str, bool]]:
        solved, failures = [], []
        for (name, _, _, planted), result in zip(self.games, self.results):
            if isinstance(result, str):
                failures.append(f"{name}: raised {result}")
            elif not result.converged or result.strategy is None:
                failures.append(f"{name}: not converged after {result.iterations} sweeps")
            else:
                solved.append((name, planted, result))
        checks = {"every solve converged and passed its certificate": not failures}
        off = 0
        for name, planted, result in solved:
            error = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(result.values, planted))
            if error > VALUE_TOL:
                off += 1
                failures.append(
                    f"{name}: value off the planted reference by {error:.2e} (> {VALUE_TOL:g}) "
                    f"after {result.iterations} sweeps"
                )
        checks[f"values within {VALUE_TOL:g} of the planted values"] = off == 0
        return len(self.games), failures, checks


def make_job(name: str, seed: int, root: Path):
    if name in SWEEPS:
        return SweepJob(name, root)
    if name == SOLVE:
        return SolveJob(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
