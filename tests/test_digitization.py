import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import tptg
from tptg import (
    ModelError,
    Move,
    estimate,
    make_game,
    simulate,
    uniform_profile,
)
from tptg.simulation import _Z99, _mean_halfwidth

from dense_time import (
    TimedPath,
    accumulated_duration,
    digital_path_in_game,
    digitize_path,
    digitize_scalar,
    random_timed_path,
)

EPSILONS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_digitize_scalar_examples():
    assert digitize_scalar(Fraction(12, 5), Fraction(1, 2)) == 2  # 2.4 rounds down
    assert digitize_scalar(Fraction(27, 10), Fraction(1, 2)) == 3  # 2.7 rounds up
    for eps in EPSILONS:
        assert digitize_scalar(3, eps) == 3


def test_digitize_scalar_boundary_is_exact():
    # exactly on the threshold: floor wins
    assert digitize_scalar(Fraction(5, 2), Fraction(1, 2)) == 2
    assert digitize_scalar(Fraction(5, 2) + Fraction(1, 10**12), Fraction(1, 2)) == 3


def test_digitize_scalar_rejects_floats_and_bad_epsilon():
    with pytest.raises(ModelError):
        digitize_scalar(2.4, Fraction(1, 2))
    with pytest.raises(ModelError):
        digitize_scalar(Fraction(1), Fraction(3, 2))
    with pytest.raises(ModelError):
        digitize_scalar(Fraction(-1), Fraction(1, 2))


@given(
    num=st.integers(min_value=0, max_value=400),
    den=st.integers(min_value=1, max_value=16),
    eps_num=st.integers(min_value=0, max_value=16),
)
def test_digitize_scalar_monotone(num, den, eps_num):
    eps = Fraction(eps_num, 16)
    t = Fraction(num, den)
    u = t + Fraction(1, 7)
    assert digitize_scalar(t, eps) <= digitize_scalar(u, eps)


def test_digitize_scalar_integer_difference_property():
    # rounding both sides of an exact integer gap preserves the comparison
    rng = random.Random(1234)
    for _ in range(2000):
        den = rng.randint(1, 16)
        t = Fraction(rng.randint(0, 400), den)
        c = rng.randint(0, 20)
        rel = rng.choice(("<=", "==", ">="))
        eps = Fraction(rng.randint(0, 16), 16)
        if rel == "<=":
            u = t + Fraction(rng.randint(0, 50), 13)
            assert u - t >= 0
            t2, u2 = t, t + c + (u - t)  # u2 - t2 >= c
            assert digitize_scalar(u2, eps) - digitize_scalar(t2, eps) >= c
        elif rel == "==":
            u2 = t + c
            assert digitize_scalar(u2, eps) - digitize_scalar(t, eps) == c
        else:
            u2 = t + Fraction(rng.randint(0, c * 13), 13)
            if u2 - t <= c:
                assert digitize_scalar(u2, eps) - digitize_scalar(t, eps) <= c


def fig1_path(fig1_model, durations, actions_and_branches):
    path = TimedPath(fig1_model)
    for duration, (action, resets, target) in zip(durations, actions_and_branches):
        path.extend(duration, action, frozenset(resets), target)
    return path


def test_accumulated_duration(fig1_model):
    path = fig1_path(
        fig1_model,
        [Fraction(3, 2), Fraction(3, 2)],
        [("send", {"x"}, "medium"), ("quick", {"x"}, "send")],
    )
    assert accumulated_duration(path, 0) == 0
    assert accumulated_duration(path, 1) == Fraction(3, 2)
    assert accumulated_duration(path, 2) == 3
    with pytest.raises(ModelError):
        accumulated_duration(path, 3)


def test_timed_path_rejects_invalid_steps(fig1_model):
    path = TimedPath(fig1_model)
    with pytest.raises(ModelError):
        path.extend(Fraction(5), "send", frozenset({"x"}), "medium")  # invariant x<=2
    with pytest.raises(ModelError):
        path.extend(Fraction(1, 2), "send", frozenset({"x"}), "medium")  # guard x>=1
    with pytest.raises(ModelError):
        path.extend(1, "send", frozenset(), "medium")  # wrong reset set


def test_digitize_integer_path_is_identity(fig1_model):
    path = fig1_path(
        fig1_model,
        [1, 2],
        [("send", {"x"}, "medium"), ("quick", {"x"}, "send")],
    )
    for eps in EPSILONS:
        digital = digitize_path(path, eps)
        assert [t for t, _ in digital.steps] == [1, 2]
        assert digital.locations == ("send", "medium", "send")


def test_digitize_path_cumulative_rounding(fig1_model):
    # delays 1.3 and 1.3: cumulatives 1.3, 2.6 round (at eps=1/2) to 1, 3,
    # so the digital delays are 1 and 2
    path = fig1_path(
        fig1_model,
        [Fraction(13, 10), Fraction(13, 10)],
        [("send", {"x"}, "medium"), ("quick", {"x"}, "send")],
    )
    digital = digitize_path(path, Fraction(1, 2))
    assert [t for t, _ in digital.steps] == [1, 2]


def test_digitized_random_paths_live_in_the_digital_game(fig1_model, fig1_game):
    rng = random.Random(97)
    for _ in range(50):
        path = random_timed_path(fig1_model, rng, max_steps=8)
        for eps in EPSILONS:
            digital = digitize_path(path, eps)
            replay = digital_path_in_game(digital, fig1_game)
            assert len(replay) == len(digital.steps)


def test_epsilon_one_floors_and_epsilon_zero_ceils():
    assert digitize_scalar(Fraction(29, 10), 1) == 2
    assert digitize_scalar(Fraction(21, 10), 0) == 3
    assert digitize_scalar(7, 1) == 7 and digitize_scalar(7, 0) == 7


def coin_game():
    moves = [
        [Move("flip", ((1, 0.5), (2, 0.5)), price=1.0)],
        [],
        [Move("again", ((1, 1.0),), price=3.0)],
    ]
    return make_game(moves, owner=[1, 1, 1], labels={"goal": {1}}, players=(1, 2))


def test_simulate_start_inside_target():
    game = make_game([[]], owner=[1], labels={"goal": {0}}, players=(1, 2))
    run = simulate(game, {}, "goal", seed=1)
    assert run.hit and run.price == 0.0 and len(run.path) == 0


def test_simulate_deterministic_chain_and_price():
    moves = [
        [Move("a", ((1, 1.0),), price=2.0)],
        [Move("b", ((2, 1.0),), price=1.5)],
        [],
    ]
    game = make_game(moves, owner=[1, 1, 1], labels={"goal": {2}}, players=(1, 2))
    run = simulate(game, {0: "a", 1: "b"}, "goal", seed=9)
    assert run.hit and run.price == 3.5
    assert run.path.states == [0, 1, 2]


def test_simulate_seed_reproducibility():
    game = coin_game()
    first = simulate(game, {0: "flip", 2: "again"}, "goal", seed=42)
    second = simulate(game, {0: "flip", 2: "again"}, "goal", seed=42)
    assert first.path.states == second.path.states


def test_simulate_undefined_profile_raises():
    game = coin_game()
    with pytest.raises(ModelError):
        for seed in range(20):  # some run will reach the unmapped state 2
            simulate(game, {0: "flip"}, "goal", seed=seed)


def test_estimate_sure_reach_has_zero_halfwidth():
    moves = [
        [Move("a", ((1, 1.0),), price=1.0)],
        [],
    ]
    game = make_game(moves, owner=[1, 1], labels={"goal": {1}}, players=(1, 2))
    out = estimate(game, {0: "a"}, "goal", samples=50, seed=3)
    assert out.probability == 1.0 and out.probability_halfwidth == 0.0
    assert out.price == 1.0 and out.price_halfwidth == 0.0
    assert out.censored == 0


def test_estimate_fair_coin_within_interval():
    moves = [
        [Move("flip", ((1, 0.5), (2, 0.5)))],
        [],
        [],
    ]
    game = make_game(moves, owner=[1, 1, 1], labels={"goal": {1}}, players=(1, 2))
    out = estimate(game, {0: "flip"}, "goal", samples=100_000, seed=11)
    assert abs(out.probability - 0.5) <= out.probability_halfwidth
    assert out.probability_halfwidth < 0.005


def test_estimate_censoring_reported():
    moves = [
        [Move("spin", ((0, 1.0),))],
        [],
    ]
    game = make_game(moves, owner=[1, 1], labels={"goal": {1}}, players=(1, 2))
    out = estimate(game, {0: "spin"}, "goal", samples=10, max_steps=5, seed=0)
    assert out.censored == 10 and out.probability == 0.0 and out.price is None


def test_the_mean_and_interval_add_in_order_on_every_python():
    # `sum` compensates from Python 3.12 on, which gives these a mean of 1/3
    # and `simulate --json` other bytes on another version; in order it is 0
    mean, halfwidth = _mean_halfwidth([1e16, 1.0, -1e16])
    assert mean.hex() == (0.0).hex()
    assert halfwidth == _Z99 * math.sqrt((1e32 + 1.0 + 1e32) / 2 / 3)


def test_estimate_requires_samples():
    with pytest.raises(ModelError):
        estimate(coin_game(), {0: "flip", 2: "again"}, "goal", samples=0)


def test_a_negative_step_bound_is_refused():
    # it once ran no step, and counted every run as censored
    game, profile = coin_game(), {0: "flip", 2: "again"}
    with pytest.raises(ModelError, match="step bound must be at least 0, not -3"):
        simulate(game, profile, "goal", max_steps=-3)
    with pytest.raises(ModelError, match="step bound must be at least 0, not -3"):
        estimate(game, profile, "goal", samples=10, max_steps=-3)
    assert simulate(game, profile, "goal", max_steps=0).censored


def test_uniform_profile_runs(fig1_game):
    rng = random.Random(5)
    out = estimate(fig1_game, uniform_profile(rng), "done", samples=500, seed=5)
    assert 0.0 < out.probability <= 1.0
