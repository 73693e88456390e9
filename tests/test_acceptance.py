"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with the measured quantities."""

import math
import random
import time
from fractions import Fraction

import tptg
from tptg import (
    coalition_game,
    estimate,
    expected_price,
    parse,
    prob_reach,
)
from tptg.casestudies import nonrepudiation_text, taskgraph_text

from dense_time import digital_path_in_game, digitize_path, digitize_scalar, random_timed_path
from gamegen import random_game, random_tptg
from oracle import brute_force_solve
from printer import print_model
from reference_solves import bounded_expected_price, check_determinacy

TOL = 1e-8


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def taskgraph_value(k1, k2, p, price):
    model = tptg.gen_taskgraph(k1, k2, p)
    game = tptg.build(model, price=price)
    two = coalition_game(game, {"sched"})
    result = expected_price(two, "all_done", "minmax", tol=TOL)
    assert result.converged
    return result, two


def test_criterion_1_taskgraph_headline():
    started = time.perf_counter()
    result, game = taskgraph_value(1, 1, 1, "time")
    elapsed = time.perf_counter() - started
    value_ok = abs(result.initial_value - 18.0) < 1e-6

    # walk the profile pair from the initial state: the scheduler must never
    # start a task on the slower processor
    reachable = {game.initial}
    stack = [game.initial]
    scheduled_on_p2 = []
    while stack:
        s = stack.pop()
        if not game.moves[s]:
            continue
        action = result.strategy[s]
        if "start2_" in action:
            scheduled_on_p2.append((s, action))
        for t, p in game.move(s, action).branches:
            if p > 0 and t not in reachable:
                reachable.add(t)
                stack.append(t)
    report(
        1,
        value_ok and not scheduled_on_p2 and elapsed < 60,
        f"min expected time {result.initial_value:.9f} (want 18 +- 1e-6), "
        f"P2 schedulings on-path {len(scheduled_on_p2)}, runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_taskgraph_parameter_shape():
    values = {}
    for price in ("time", "energy"):
        base, _ = taskgraph_value(0, 0, 1, price)
        values[("k0", price)] = base.initial_value
        frozen, _ = taskgraph_value(1, 1, 0, price)
        values[("p0", price)] = frozen.initial_value
    p_zero_matches = all(
        abs(values[("p0", price)] - values[("k0", price)]) < TOL
        for price in ("time", "energy")
    )

    p_grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    p_curves = {price: [] for price in ("time", "energy")}
    for p in p_grid:
        model = tptg.gen_taskgraph(1, 1, p)
        game = tptg.build(model, price="time")
        two = coalition_game(game, {"sched"})
        p_curves["time"].append(expected_price(two, "all_done", "minmax", tol=TOL).initial_value)
        energetic = coalition_game(tptg.reweigh(game, model, "energy"), {"sched"})
        p_curves["energy"].append(
            expected_price(energetic, "all_done", "minmax", tol=TOL).initial_value
        )
    p_monotone = all(
        a <= b + TOL for curve in p_curves.values() for a, b in zip(curve, curve[1:])
    )

    k_curves = {price: [] for price in ("time", "energy")}
    for k in (0, 1, 2):
        model = tptg.gen_taskgraph(k, k, Fraction(1, 2))
        game = tptg.build(model, price="time")
        two = coalition_game(game, {"sched"})
        k_curves["time"].append(expected_price(two, "all_done", "minmax", tol=TOL).initial_value)
        energetic = coalition_game(tptg.reweigh(game, model, "energy"), {"sched"})
        k_curves["energy"].append(
            expected_price(energetic, "all_done", "minmax", tol=TOL).initial_value
        )
    k_monotone = all(
        a <= b + TOL for curve in k_curves.values() for a, b in zip(curve, curve[1:])
    )
    report(
        2,
        p_zero_matches and p_monotone and k_monotone,
        f"p=0 equals k=0 for both prices ({p_zero_matches}), "
        f"time/energy non-decreasing in p {p_curves} and in k {k_curves}",
    )


def malicious1_bounded(game, bound, coalition):
    bounded = tptg.bound_time(game, "r_gains_info", bound)
    label = f"r_gains_info_by_{bound}"
    return prob_reach(coalition_game(bounded, coalition), label, "maxmin", tol=TOL).initial_value


def test_criterion_3_malicious_equality_and_sweep():
    model = tptg.gen_nonrepudiation("malicious1", p=Fraction(1, 10))
    game = tptg.build(model)
    alone = prob_reach(coalition_game(game, {"R"}), "r_gains_info", "maxmin", tol=TOL)
    together = prob_reach(coalition_game(game, {"O", "R"}), "r_gains_info", "maxmin", tol=TOL)
    unbounded_equal = abs(alone.initial_value - together.initial_value) < 2 * TOL

    ordered = True
    worst = 0.0
    for bound in range(1, 101):
        lo = malicious1_bounded(game, bound, {"R"})
        hi = malicious1_bounded(game, bound, {"O", "R"})
        worst = max(worst, lo - hi)
        if lo > hi + 2 * TOL:
            ordered = False
    report(
        3,
        unbounded_equal and ordered,
        f"P<R>={alone.initial_value:.10f} vs P<O,R>={together.initial_value:.10f} "
        f"(gap {abs(alone.initial_value - together.initial_value):.2e}), "
        f"bounded sweep ordered over T=1..100 (worst violation {worst:.2e})",
    )


def test_criterion_4_honest_coalition_structure():
    coalitions = [set(), {"O"}, {"R"}, {"O", "R"}]
    ok = True
    details = []
    for p in (Fraction(1, 100), Fraction(1, 10)):
        unbounded = tptg.build(tptg.gen_nonrepudiation("honest", p=p))
        curves = {frozenset(c): [] for c in coalitions}
        for bound in range(0, 61, 4):
            game = tptg.bound_time(unbounded, "terminated_ok", bound)
            label = f"terminated_ok_by_{bound}"
            for c in coalitions:
                value = prob_reach(
                    coalition_game(game, c), label, "maxmin", tol=TOL
                ).initial_value
                curves[frozenset(c)].append(value)
        for c, curve in curves.items():
            if not all(0.0 <= v <= 1.0 + TOL for v in curve):
                ok = False
                details.append(f"p={p}: range violation for {sorted(c)}")
            if not all(a <= b + 2 * TOL for a, b in zip(curve, curve[1:])):
                ok = False
                details.append(f"p={p}: non-monotone in T for {sorted(c)}")
        for low, high in [
            (frozenset(), frozenset({"O"})),
            (frozenset({"O"}), frozenset({"O", "R"})),
            (frozenset(), frozenset({"R"})),
            (frozenset({"R"}), frozenset({"O", "R"})),
        ]:
            pairs = zip(curves[low], curves[high])
            if not all(a <= b + 2 * TOL for a, b in pairs):
                ok = False
                details.append(f"p={p}: coalition order {sorted(low)} <= {sorted(high)} broken")
    report(4, ok, "coalition/time monotonicity on honest sweeps"
           + (f"; issues: {details}" if details else " (all ordered)"))


def test_criterion_5_determinacy_suite():
    started = time.perf_counter()
    rng = random.Random(50_501)
    games = []
    for _ in range(80):
        model = random_tptg(rng)
        games.append(coalition_game(tptg.build(model, price="run"), {"one"}))
    for _ in range(100):
        games.append(random_game(rng, max_states=60, min_price=1))
    for _ in range(20):
        games.append(random_game(rng, max_states=400, min_price=1))

    assert len(games) == 200
    assert all(len(g.states) <= 500 for g in games)
    worst = 0.0
    checked = 0
    for game in games:
        for kind in ("prob-reach", "exp-price"):
            lo, hi = check_determinacy(game, "goal", kind, "maxmin", tol=1e-10)
            checked += 1
            if math.isinf(lo) or math.isinf(hi):
                assert math.isinf(lo) and math.isinf(hi)
                continue
            worst = max(worst, abs(hi - lo))
    elapsed = time.perf_counter() - started
    report(
        5,
        worst < 2 * TOL and elapsed < 300,
        f"{checked} determinacy checks on 200 games, worst gap {worst:.2e} "
        f"(< 2e-8), runtime {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(60_601)
    worst = 0.0
    for _ in range(100):
        game = random_game(rng, max_states=10, max_actions=3, min_price=1)
        for direction in ("maxmin", "minmax"):
            exact = brute_force_solve(game, "goal", "prob-reach", direction)
            approx = prob_reach(game, "goal", direction, tol=1e-10).initial_value
            worst = max(worst, abs(approx - float(exact)))

            exact_price = brute_force_solve(game, "goal", "exp-price", direction)
            got = expected_price(game, "goal", direction, tol=1e-10).initial_value
            if math.isinf(got) or math.isinf(exact_price):
                assert math.isinf(got) and math.isinf(exact_price)
            else:
                worst = max(worst, abs(got - float(exact_price)))
    report(6, worst < 1e-7, f"100 games, both objectives: worst |VI - exact| = {worst:.2e} (< 1e-7)")


def test_criterion_7_digitization_suite(fig1_model, fig1_game):
    rng = random.Random(70_701)
    epsilons = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    replayed = 0
    for _ in range(50):
        path = random_timed_path(fig1_model, rng, max_steps=8)
        for eps in epsilons:
            digital_path_in_game(digitize_path(path, eps), fig1_game)
            replayed += 1

    pairs = 0
    for _ in range(10_000):
        t = Fraction(rng.randint(0, 300), rng.randint(1, 16))
        u = Fraction(rng.randint(0, 300), rng.randint(1, 16))
        eps = Fraction(rng.randint(0, 16), 16)
        dt, du = digitize_scalar(t, eps), digitize_scalar(u, eps)
        for c in range(0, 25):
            if t - u <= c:
                assert dt - du <= c, (t, u, eps, c)
            if t - u >= c:
                assert dt - du >= c, (t, u, eps, c)
            if t - u == c:
                assert dt - du == c, (t, u, eps, c)
        pairs += 1
    report(
        7,
        True,
        f"{replayed} digitized paths replayed in the explicit game; "
        f"integer-difference preservation on {pairs} random pairs",
    )


def test_criterion_8_monte_carlo_cross_validation():
    # task graph headline: min expected time 18.0 with certain faults
    result, game = taskgraph_value(1, 1, 1, "time")
    run = estimate(game, result.strategy, "all_done", samples=100_000, seed=88)
    tg_ok = (
        abs(run.probability - 1.0) <= run.probability_halfwidth
        and abs(run.price - result.initial_value) <= run.price_halfwidth
        and run.censored == 0
    )

    # honest protocol headline: min expected termination time, p = 1/10
    model = tptg.gen_nonrepudiation("honest", p=Fraction(1, 10))
    hg = tptg.build(model, price="time")
    two = coalition_game(hg, {"O", "R"})
    honest = expected_price(two, "terminated_ok", "minmax", tol=TOL)
    hrun = estimate(two, honest.strategy, "terminated_ok", samples=100_000, seed=99)
    nr_ok = (
        abs(hrun.probability - 1.0) <= hrun.probability_halfwidth
        and abs(hrun.price - honest.initial_value) <= hrun.price_halfwidth
        and hrun.censored == 0
    )
    report(
        8,
        tg_ok and nr_ok,
        f"task graph: value {result.initial_value:.4f} in "
        f"{run.price:.4f}+-{run.price_halfwidth:.4f}; honest protocol: value "
        f"{honest.initial_value:.4f} in {hrun.price:.4f}+-{hrun.price_halfwidth:.4f} "
        f"(both probabilities 1 within CI)",
    )


def test_criterion_9_bounded_horizon_convergence():
    rng = random.Random(90_901)
    worst_gap = 0.0
    monotone = True
    for i in range(20):
        game = random_game(
            rng, max_states=15, min_states=6, min_price=0, goal_escape=Fraction(1, 2)
        )
        direction = "maxmin" if i % 2 == 0 else "minmax"
        limit = expected_price(game, "goal", direction, tol=1e-12).values
        horizon = 10 * len(game.states)
        previous = None
        for n in range(0, horizon + 1, max(1, horizon // 10)):
            values = bounded_expected_price(game, "goal", n, direction)
            if previous is not None and any(
                a < b - 1e-9 for a, b in zip(values, previous)
            ):
                monotone = False
            previous = values
        final = bounded_expected_price(game, "goal", horizon, direction)
        worst_gap = max(
            worst_gap,
            max(abs(a - b) for a, b in zip(final, limit)),
        )
    report(
        9,
        monotone and worst_gap < TOL,
        f"20 games: bounded values non-decreasing in n, gap to the fixpoint at "
        f"n=10|S| is {worst_gap:.2e} (< {TOL})",
    )


def test_criterion_10_dsl_round_trip(fig1_text):
    corpus = {
        "fig1": fig1_text,
        "honest-0.01": nonrepudiation_text("honest", Fraction(1, 100)),
        "honest-0.1": nonrepudiation_text("honest", Fraction(1, 10)),
        "malicious1-0.1": nonrepudiation_text("malicious1", Fraction(1, 10)),
        "malicious2-0.1": nonrepudiation_text("malicious2", Fraction(1, 10)),
        "taskgraph-1-1-1": taskgraph_text(1, 1, 1),
        "taskgraph-2-2-half": taskgraph_text(2, 2, Fraction(1, 2)),
    }
    stable = []
    for name, text in corpus.items():
        first = parse(text)
        second = parse(print_model(first))
        stable.append(second == first)
    report(
        10,
        all(stable),
        f"parse-print-parse stable on {sum(stable)}/{len(corpus)} corpus models",
    )
