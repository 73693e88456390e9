import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tptg
from tptg import (
    ModelError,
    Move,
    Objective,
    coalition_game,
    expected_price,
    from_json,
    make_game,
    prob_reach,
    qualitative_reach,
    synthesize,
    to_json,
)

from gamegen import random_game, random_tptg
from oracle import brute_force_solve
from reference_solves import bounded_expected_price, check_determinacy


def two_action_game():
    """Player-1 state with a 0.5 shot and a 0.3 shot at the goal."""
    moves = [
        [
            Move("a", ((1, 0.5), (2, 0.5))),
            Move("b", ((1, 0.3), (2, 0.7))),
        ],
        [],  # goal
        [],  # sink
    ]
    return make_game(moves, owner=[1, 1, 2], labels={"goal": {1}}, players=(1, 2))


def chain_game(length=3, price=1.0):
    moves = []
    for s in range(length):
        moves.append([Move("step", ((s + 1, 1.0),), price=price)])
    moves.append([])
    return make_game(moves, owner=[1] * (length + 1), labels={"goal": {length}}, players=(1, 2))


def test_initial_in_target_prob_one_and_price_zero():
    game = make_game([[]], owner=[1], labels={"goal": {0}}, players=(1, 2))
    assert prob_reach(game, "goal").initial_value == 1.0
    assert expected_price(game, "goal", "minmax").initial_value == 0.0


def test_two_action_game_both_directions():
    game = two_action_game()
    assert prob_reach(game, "goal", "maxmin").initial_value == pytest.approx(0.5, abs=1e-12)
    # handing the state to the opponent flips the optimum
    flipped = make_game(
        [list(game.moves[0]), [], []], owner=[2, 1, 2], labels={"goal": {1}}, players=(1, 2)
    )
    assert prob_reach(flipped, "goal", "maxmin").initial_value == pytest.approx(0.3, abs=1e-12)


def test_oracle_on_two_action_game():
    assert brute_force_solve(two_action_game(), "goal") == Fraction(1, 2)


def test_deterministic_chain_price():
    game = chain_game(3)
    assert expected_price(game, "goal", "minmax").initial_value == pytest.approx(3.0)
    assert brute_force_solve(game, "goal", "exp-price", "minmax") == 3


def test_qualitative_trivial_sets():
    game = two_action_game()
    prob0, prob1 = qualitative_reach(game, frozenset(range(3)), "maxmin")
    assert prob1 == frozenset(range(3))
    unreachable = make_game(
        [[Move("a", ((0, 1.0),))], []],
        owner=[1, 1],
        labels={"goal": {1}},
        players=(1, 2),
    )
    prob0, prob1 = qualitative_reach(unreachable, "goal", "maxmin")
    assert prob0 == frozenset({0})


def test_qualitative_matches_thresholded_value_iteration():
    rng = random.Random(99)
    for _ in range(40):
        game = random_game(rng, max_states=7)
        for direction in ("maxmin", "minmax"):
            prob0, prob1 = qualitative_reach(game, "goal", direction)
            values = prob_reach(game, "goal", direction, tol=1e-12).values
            for s, v in enumerate(values):
                assert (s in prob0) == (v < 1e-9), (s, v, direction)
                assert (s in prob1) == (v > 1 - 1e-9), (s, v, direction)


def test_non_target_deadlock_warning_and_values():
    game = make_game(
        [[Move("a", ((1, 0.5), (2, 0.5)))], [], []],
        owner=[1, 1, 2],
        labels={"goal": {1}},
        players=(1, 2),
    )
    reach = prob_reach(game, "goal")
    assert any("deadlock" in w for w in reach.warnings)
    price = expected_price(game, "goal", "minmax")
    assert math.isinf(price.values[2])
    assert math.isinf(price.initial_value)  # cannot force avoiding the sink


def test_value_iteration_matches_oracle_on_random_games():
    rng = random.Random(4242)
    for _ in range(60):
        game = random_game(rng, max_states=7, min_price=1)
        for direction in ("maxmin", "minmax"):
            exact = brute_force_solve(game, "goal", "prob-reach", direction)
            approx = prob_reach(game, "goal", direction, tol=1e-12).initial_value
            assert abs(approx - float(exact)) < 1e-9

            exact_price = brute_force_solve(game, "goal", "exp-price", direction)
            got = expected_price(game, "goal", direction, tol=1e-12).initial_value
            if math.isinf(got) or math.isinf(exact_price):
                assert math.isinf(got) and math.isinf(exact_price)
            else:
                assert abs(got - float(exact_price)) < 1e-7


def test_bounded_price_zero_horizon_and_monotone():
    rng = random.Random(7)
    game = random_game(rng, goal_escape=Fraction(2, 5))
    assert bounded_expected_price(game, "goal", 0) == [0.0] * len(game.states)
    previous = None
    for n in range(0, 30, 3):
        values = bounded_expected_price(game, "goal", n, "maxmin")
        if previous is not None:
            assert all(a >= b - 1e-12 for a, b in zip(values, previous))
        previous = values


def test_bounded_price_converges_to_expected_on_chain():
    game = chain_game(4)
    limit = expected_price(game, "goal", "minmax").values
    finite = bounded_expected_price(game, "goal", 50, "minmax")
    assert finite == pytest.approx(limit)


def test_bounded_backups_add_in_branch_order_as_the_acyclic_visit():
    # addends 1.0, 2**-53, 2**-53: a left fold gives 1.0, a compensated sum
    # 1.0000000000000002
    tiny = 2.0 ** -51
    moves = [
        [Move("go", ((1, 0.5), (2, 0.25), (3, 0.25)))],
        [Move("x", ((4, 1.0),), price=2.0)],
        [Move("x", ((4, 1.0),), price=tiny)],
        [Move("x", ((4, 1.0),), price=tiny)],
        [],
    ]
    game = make_game(moves, [1, 2, 1, 2, 1], labels={"goal": {4}}, initial=0, players=(1, 2))
    acyclic = expected_price(game, "goal", "maxmin").values[0]
    assert bounded_expected_price(game, "goal", 2, "maxmin")[0] == acyclic == 1.0


def test_synthesize_single_action_and_argmax():
    game = two_action_game()
    result = prob_reach(game, "goal", "maxmin")
    assert result.strategy[0] == "a"
    p1, p2 = synthesize(game, result.objective, result)
    assert p1 == {0: "a"} and p2 == {}


def test_synthesize_tie_breaks_by_delay_then_name():
    moves = [
        [
            Move("z", ((1, 1.0),), time=2),
            Move("a", ((1, 1.0),), time=1),
        ],
        [],
    ]
    game = make_game(moves, owner=[1, 1], labels={"goal": {1}}, players=(1, 2))
    result = prob_reach(game, "goal")
    assert result.strategy[0] == "(1,a)"


def test_synthesize_avoids_value_preserving_loops():
    # looping preserves the converged value exactly; the chosen move must
    # still make progress towards the goal
    moves = [
        [
            Move("loop", ((0, 1.0),)),
            Move("shot", ((1, 0.5), (2, 0.5))),
        ],
        [],
        [],
    ]
    game = make_game(moves, owner=[1, 1, 2], labels={"goal": {1}}, players=(1, 2))
    values = [0.5, 1.0, 0.0]
    p1, _ = synthesize(game, Objective("prob-reach", "maxmin", "goal"), values)
    assert p1[0] == "shot"


def test_synthesize_refuses_non_converged():
    game = two_action_game()
    result = prob_reach(game, "goal", max_iters=0)
    assert not result.converged
    with pytest.raises(ModelError):
        synthesize(game, result.objective, result)


def test_expected_price_refuses_zero_price_stalling():
    # the minimizer could sit on the free self-loop forever; under the
    # strict convention that is infinitely expensive, and plain value
    # iteration would credit it as free, so the solve is refused
    moves = [
        [
            Move("idle", ((0, 1.0),), price=0.0),
            Move("out", ((1, 1.0),), price=1.0),
        ],
        [],
    ]
    game = make_game(moves, owner=[1, 1], labels={"goal": {1}}, players=(1, 2))
    with pytest.raises(ModelError, match="stall"):
        expected_price(game, "goal", "minmax")
    # probabilities are unaffected
    assert prob_reach(game, "goal", "maxmin").initial_value == 1.0
    # a solve of an acyclic game cannot stall on its own values, which price
    # the dead end 3 at infinity; a caller's vector pricing it at 0 claims a
    # finite price where the target is never reached, so `synthesize` runs
    # the check on caller-supplied values even without a cycle
    game = make_game(
        [[Move("a", ((1, 1.0),), 1.0)], [Move("x", ((2, 1.0),), 0.0), Move("y", ((3, 1.0),), 0.0)], [], []],
        owner=[1, 2, 1, 1], labels={"goal": {2}}, players=(1, 2),
    )
    assert expected_price(game, "goal", "maxmin").strategy == {0: "a", 1: "x"}
    with pytest.raises(ModelError, match=r"stall at zero price in 1 state\(s\) \(e\.g\. state 3\)"):
        synthesize(game, Objective("exp-price", "maxmin", "goal"), [1.0, 0.0, 0.0, 0.0])


def test_expected_price_never_undershoots_cooperative_zero_price_cycle():
    # state 0 can hand the play to the price maximizer at state 3 for free,
    # and state 3 can hand it back for free: iteration from below settles at
    # 1.0, but the exact value is 65/33
    moves = [
        [
            Move("a0", ((2, 1 / 3), (4, 2 / 9), (1, 4 / 9)), price=1.0),
            Move("a1", ((3, 1.0),), price=0.0),
            Move("a2", ((2, 2 / 3), (0, 1 / 3)), price=2.0),
        ],
        [Move("a0", ((0, 0.2), (3, 0.4), (2, 0.4)), price=1.0)],
        [],
        [Move("a0", ((2, 1.0),), price=1.0), Move("a1", ((0, 1.0),), price=0.0)],
        [],
    ]
    game = make_game(moves, owner=[1, 1, 1, 2, 2], labels={"goal": {2, 4}}, players=(1, 2))
    assert brute_force_solve(game, "goal", "exp-price", "minmax") == Fraction(65, 33)
    try:
        value = expected_price(game, "goal", "minmax").initial_value
    except ModelError:
        return
    assert abs(value - 65 / 33) < 1e-7


def test_expected_price_on_zero_price_random_games_is_exact_or_refused():
    for seed in (12, 37):
        rng = random.Random(seed)
        for _ in range(60):
            game = random_game(rng, max_states=6, min_price=0, max_price=2)
            for direction in ("maxmin", "minmax"):
                try:
                    got = expected_price(game, "goal", direction, tol=1e-12).initial_value
                except ModelError:
                    continue
                exact = brute_force_solve(game, "goal", "exp-price", direction)
                if math.isinf(got) or math.isinf(exact):
                    assert math.isinf(got) and math.isinf(exact)
                else:
                    assert abs(got - float(exact)) < 1e-7, (seed, direction)


def test_expected_price_witnesses_infinity_without_a_trap():
    # every price is positive; the price maximizer keeps the goal unreached
    # with positive probability only by leaving the almost-sure region
    moves = [
        [],
        [
            Move("a0", ((1, 0.75), (7, 0.25)), price=1.0),
            Move("a1", ((0, 0.375), (5, 0.125), (6, 0.5)), price=4.0),
        ],
        [],
        [Move("a0", ((3, 1.0),), price=2.0)],
        [],
        [
            Move("a0", ((5, 1.0),), price=4.0),
            Move("a1", ((3, 0.3), (2, 0.4), (7, 0.3)), price=5.0),
        ],
        [Move("a0", ((4, 0.5), (2, 0.5)), price=3.0)],
        [
            Move("a0", ((5, 0.8), (1, 0.2)), price=3.0),
            Move("a1", ((5, 1.0),), price=2.0),
            Move("a2", ((1, 4 / 9), (6, 4 / 9), (0, 1 / 9)), price=4.0),
        ],
    ]
    game = make_game(
        moves, owner=[1, 1, 2, 2, 2, 2, 2, 2], labels={"goal": {0, 2, 4}}, initial=5, players=(1, 2)
    )
    result = expected_price(game, "goal", "maxmin")
    assert math.isinf(result.initial_value)
    assert result.strategy
    assert math.isinf(brute_force_solve(game, "goal", "exp-price", "maxmin"))


def test_monotonicity_check_survives_optimized_mode():
    # start above the fixpoint so the first sweep goes down
    code = (
        "from tptg import ModelError, Move, make_game\n"
        "from tptg.solver import _iterate, _opt_for\n"
        "game = make_game([[Move('a', ((1, 0.5), (2, 0.5)))], [], []],\n"
        "                 owner=[1, 1, 2], labels={'goal': {1}}, players=(1, 2))\n"
        "try:\n"
        "    _iterate(game.moves, [0.9, 1.0, 0.0], [0], _opt_for(game, 'maxmin'), 1e-8, 10, prices=False)\n"
        "except ModelError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    package_root = os.path.dirname(os.path.dirname(tptg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.startswith("False non-monotone sweep at state 0")


@pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
def test_a_negative_nan_or_infinite_tolerance_is_refused(tol):
    game = two_action_game()
    objective = Objective("prob-reach", "maxmin", "goal")
    values = prob_reach(game, "goal").values
    calls = [
        lambda: prob_reach(game, "goal", tol=tol),
        lambda: expected_price(game, "goal", tol=tol),
        lambda: tptg.solve(game, objective, tol=tol),
        lambda: synthesize(game, objective, values, tol),
        lambda: check_determinacy(game, "goal", tol=tol),
    ]
    for call in calls:
        with pytest.raises(ModelError, match="tolerance must be a finite number >= 0"):
            call()


def test_solve_records_the_callers_objective():
    game = chain_game()
    objective = Objective("exp-price", "minmax", "goal", price="time")
    result = tptg.solve(game, objective)
    assert result.objective is objective
    assert result.initial_value == 3.0
    assert result.to_json_dict()["objective"]["price"] == "time"


def test_an_objective_refuses_an_unknown_kind_or_direction():
    with pytest.raises(ModelError, match="unknown objective kind 'reach'"):
        Objective("reach", "maxmin", "goal")
    # the step-bounded price is a test-side reference, not an objective kind
    with pytest.raises(ModelError, match="unknown objective kind 'bounded-exp-price'"):
        Objective("bounded-exp-price", "maxmin", "goal")
    with pytest.raises(ModelError, match="unknown direction 'maxmn'"):
        Objective("prob-reach", "maxmn", "goal")


def test_unknown_direction_is_refused():
    game = two_action_game()
    with pytest.raises(ModelError, match="unknown direction"):
        qualitative_reach(game, "goal", "maxmn")
    with pytest.raises(ModelError, match="unknown direction"):
        bounded_expected_price(game, "goal", 2, "maxmn")


def test_synthesize_zero_price_progress():
    # zero-price ties without any cycle: the chosen move must still head
    # for the target
    moves = [
        [
            Move("detour", ((1, 1.0),), price=0.0),
            Move("fast", ((2, 1.0),), price=0.0),
        ],
        [Move("go", ((2, 1.0),), price=0.0)],
        [],
    ]
    game = make_game(moves, owner=[1, 1, 1], labels={"goal": {2}}, players=(1, 2))
    result = expected_price(game, "goal", "minmax")
    assert result.initial_value == 0.0
    assert result.strategy[0] == "fast"


def test_check_determinacy_on_mdp_like_game():
    game = chain_game(2)
    lo, hi = check_determinacy(game, "goal", "exp-price", "minmax")
    assert lo == pytest.approx(hi)


def test_check_determinacy_random_games():
    rng = random.Random(31337)
    for _ in range(30):
        game = random_game(rng, max_states=10, min_price=1)
        for kind in ("prob-reach", "exp-price"):
            lo, hi = check_determinacy(game, "goal", kind, "maxmin", tol=1e-10)
            if math.isinf(lo) or math.isinf(hi):
                assert math.isinf(lo) and math.isinf(hi)
            else:
                assert abs(hi - lo) < 2e-8


def test_coalition_monotonicity_via_solver():
    rng = random.Random(2718)
    for _ in range(15):
        n = rng.randint(3, 8)
        owner = [rng.choice(("a", "b", "c")) for _ in range(n)]
        moves = []
        goals = {n - 1}
        for s in range(n):
            if s in goals:
                moves.append([])
                continue
            row = []
            for a in range(rng.randint(1, 2)):
                support = rng.sample(range(n), rng.randint(1, 2))
                weights = [rng.randint(1, 3) for _ in support]
                total = sum(weights)
                row.append(Move(f"a{a}", tuple((t, w / total) for t, w in zip(support, weights))))
            moves.append(row)
        game = make_game(moves, owner, labels={"goal": goals}, players=("a", "b", "c"))
        nested = [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}]
        values = [
            prob_reach(coalition_game(game, c), "goal", "maxmin").initial_value
            for c in nested
        ]
        for small, large in zip(values, values[1:]):
            assert small <= large + 1e-9


def test_solver_from_random_timed_models():
    rng = random.Random(515)
    for _ in range(10):
        model = random_tptg(rng)
        game = tptg.build(model)
        two = coalition_game(game, {"one"})
        result = prob_reach(two, "goal")
        assert result.converged
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in result.values)


def test_requires_two_players():
    game = make_game([[ ]], owner=["a"], players=("a", "b", "c"), labels={"goal": {0}})
    with pytest.raises(ModelError):
        prob_reach(game, "goal")


def test_solve_result_json_shape():
    game = two_action_game()
    result = prob_reach(game, "goal")
    payload = result.to_json_dict()
    assert set(payload) == {"objective", "value", "iterations", "residual", "converged", "strategy"}
    assert payload["strategy"] == [{"state": 0, "action": "a"}]


def test_a_probability_0_branch_plays_no_part_in_backups():
    # `a` reaches the goal surely; its branch of probability 0 into the
    # deadlock, whose price is infinite, must not make its backup NaN
    moves = [[Move("a", ((1, 0.0), (2, 1.0)), price=1.0), Move("b", ((1, 1.0),))], [], []]
    game = make_game(moves, owner=[2, 1, 2], labels={"goal": {2}}, players=(1, 2))
    assert game.validate() == []
    assert to_json(from_json(to_json(game))) == to_json(game)
    result = expected_price(game, "goal", "maxmin")  # certified
    assert result.initial_value == 1.0
    assert result.strategy == {0: "a"}
    assert brute_force_solve(game, "goal", "exp-price", "maxmin") == 1
