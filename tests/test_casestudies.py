from fractions import Fraction

import pytest

import tptg
from tptg import (
    coalition_game,
    expected_price,
    prob_reach,
)
from tptg.cli import main

from oracle import brute_force_solve


@pytest.fixture(scope="module")
def honest_half():
    return tptg.gen_nonrepudiation("honest", p=Fraction(1, 2))


def test_owner_assignment_follows_protocol_roles():
    model = tptg.gen_nonrepudiation("malicious1", p=Fraction(1, 10))
    assert model.owner["wait.acking"] == "R"  # acknowledgement timing is R's
    assert model.owner["send.idle"] == "O"
    assert all(
        player in ("O", "R") for player in model.owner.values()
    )


def test_honest_single_round_expected_time_matches_oracle():
    # p=1 collapses the protocol to one round: fastest message plus fastest ack
    model = tptg.gen_nonrepudiation("honest", p=1)
    game = tptg.build(model, price="time")
    two = coalition_game(game, {"O", "R"})
    exact = brute_force_solve(two, "terminated_ok", "exp-price", "minmax")
    assert exact == 3  # md + ad
    solved = expected_price(two, "terminated_ok", "minmax")
    assert solved.initial_value == pytest.approx(float(exact), abs=1e-8)


def test_honest_expected_time_is_geometric_in_p():
    # each round takes md+ad under cooperative play and ends with probability p
    for p in (Fraction(1, 2), Fraction(1, 10)):
        model = tptg.gen_nonrepudiation("honest", p=p)
        game = tptg.build(model, price="time")
        two = coalition_game(game, {"O", "R"})
        value = expected_price(two, "terminated_ok", "minmax").initial_value
        assert value == pytest.approx(float(3 / p), abs=1e-6)


def test_time_bound_converges_to_unbounded_value(honest_half):
    game = tptg.build(honest_half)
    unbounded = prob_reach(
        coalition_game(game, {"O", "R"}), "terminated_ok", "maxmin"
    ).initial_value
    bounded = prob_reach(
        coalition_game(tptg.bound_time(game, "terminated_ok", 200), {"O", "R"}),
        "terminated_ok_by_200", "maxmin", tol=1e-12,
    ).initial_value
    assert unbounded == pytest.approx(1.0, abs=1e-9)
    # 200 time units allow at least 66 rounds; the leftover tail is far below
    # the solver tolerance
    assert bounded == pytest.approx(unbounded, abs=1e-8)


def test_malicious_guess_value_equals_p():
    # a failed guess forfeits everything, so guessing immediately is optimal
    # and succeeds exactly with the per-round closing probability
    for p in (Fraction(1, 10), Fraction(1, 4)):
        model = tptg.gen_nonrepudiation("malicious1", p=p)
        game = tptg.build(model)
        value = prob_reach(
            coalition_game(game, {"R"}), "r_gains_info", "maxmin"
        ).initial_value
        assert value == pytest.approx(float(p), abs=1e-9)


def test_malicious2_decoder_lifts_value_to_quarter():
    model = tptg.gen_nonrepudiation("malicious2", p=Fraction(1, 10))
    game = tptg.build(model)
    value = prob_reach(
        coalition_game(game, {"R"}), "r_gains_info", "maxmin"
    ).initial_value
    assert value == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("variant, states", [("malicious1", 10), ("malicious2", 16)])
def test_malicious_variants_answer_at_p_1(variant, states, capsys):
    # every guess is right: the guess has one branch, as the acknowledgement has
    prop = "Pmax [ F r_gains_info ] coalition {R}"
    assert main(["check", "--gen", "nonrepudiation", "--variant", variant, "--p", "1", "--prop", prop]) == 0
    assert capsys.readouterr().out == (
        f"Pmax[F r_gains_info] {{R}} = 1.000000 (converged=true, iterations=1, states={states})\n"
    )
    game = coalition_game(tptg.build(tptg.gen_nonrepudiation(variant, p=1)), {"R"})
    value = prob_reach(game, "r_gains_info", "maxmin").initial_value
    assert value == brute_force_solve(game, "r_gains_info") == 1


def test_malicious_cheat_label_reachable():
    model = tptg.gen_nonrepudiation("malicious1", p=Fraction(1, 10))
    game = tptg.build(model)
    value = prob_reach(
        coalition_game(game, {"R"}), "o_declares_cheat", "maxmin"
    ).initial_value
    assert value == pytest.approx(1.0, abs=1e-9)  # R can force the timeout


def test_taskgraph_faultless_value():
    model = tptg.gen_taskgraph(0, 0, 1)
    game = tptg.build(model, price="time")
    two = coalition_game(game, {"sched"})
    # fault-free schedule: the slow processor absorbs one long multiply while
    # the fast one runs the critical path
    assert expected_price(two, "all_done", "minmax").initial_value == pytest.approx(12.0)


def test_taskgraph_all_done_almost_sure():
    model = tptg.gen_taskgraph(1, 1, Fraction(1, 2))
    game = tptg.build(model)
    two = coalition_game(game, {"sched"})
    result = prob_reach(two, "all_done", "minmax")
    assert result.initial_value == pytest.approx(1.0, abs=1e-9)


def test_taskgraph_time_prices_match_move_delays():
    model = tptg.gen_taskgraph(0, 0, 1)
    game = tptg.build(model, price="time")
    for moves in game.moves:
        for move in moves:
            assert move.price == float(move.time)
