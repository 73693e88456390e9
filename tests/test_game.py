import json
import math
import random

import pytest

import tptg
from tptg import ModelError, Move, TsgPath, coalition_game, make_game
from tptg.cli import main
from tptg.game import from_json_dict

from gamegen import random_game
from test_cli import SHIPPED_SWEEPS


def single_state_game():
    return make_game(
        [[Move("a", ((0, 1.0),))]],
        owner=[1],
        players=(1, 2),
    )


def test_available_actions_single_state():
    game = single_state_game()
    assert game.available_actions(0) == ["a"]


def test_deadlock_state_has_no_actions():
    game = make_game([[]], owner=[1], players=(1, 2))
    assert game.available_actions(0) == []
    assert 0 in game.deadlocks


def test_available_actions_bad_index():
    with pytest.raises(ModelError):
        single_state_game().available_actions(3)


def test_available_actions_fig1_initial(fig1_game):
    assert fig1_game.available_actions(fig1_game.initial) == ["(1,send)", "(2,send)"]


def test_coalition_full_and_empty():
    rng = random.Random(7)
    game = random_game(rng)
    everyone = coalition_game(game, set(game.players))
    assert set(everyone.owner) == {1}
    nobody = coalition_game(game, set())
    assert set(nobody.owner) == {2}


def test_coalition_unknown_player_rejected():
    with pytest.raises(ModelError):
        coalition_game(single_state_game(), {"nope"})


def test_coalition_idempotent_on_two_player_games():
    rng = random.Random(3)
    game = coalition_game(random_game(rng), {1})
    again = coalition_game(game, {1})
    assert again.owner == game.owner
    assert again.players == game.players


def test_coalition_counts_match_owner_map():
    model = tptg.gen_nonrepudiation("malicious1", p="1/10")
    game = tptg.build(model)
    two = coalition_game(game, {"O"})
    o_states = sum(1 for s in game.owner if s == "O")
    assert sum(1 for s in two.owner if s == 1) == o_states


def test_coalition_preserves_validity():
    rng = random.Random(11)
    for _ in range(20):
        game = random_game(rng)
        assert game.validate() == []
        assert coalition_game(game, {1}).validate() == []


def test_validate_reports_bad_mass_and_partition():
    game = make_game(
        [[Move("a", ((0, 0.5), (0, 0.4)))]],
        owner=[1],
        players=(1, 2),
    )
    issues = game.validate()
    assert any("mass" in issue for issue in issues)

    broken = tptg.Tsg(
        states=(0, 1),
        initial=0,
        players=(1, 2),
        owner=(1,),  # one state uncovered
        moves=((Move("a", ((1, 1.0),)),), ()),
        labels={"deadlock": frozenset({1})},
    )
    assert any("partition" in issue for issue in broken.validate())


def test_unflagged_deadlock_is_diagnosed():
    game = tptg.Tsg(
        states=(0,),
        initial=0,
        players=(1, 2),
        owner=(1,),
        moves=((),),
        labels={},
    )
    assert any("deadlock" in issue for issue in game.validate())


def test_json_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        game = random_game(rng)
        back = tptg.from_json(tptg.to_json(game))
        assert len(back.states) == len(game.states)
        assert back.initial == game.initial
        assert back.players == game.players
        assert back.owner == game.owner
        assert back.labels == game.labels
        for s in range(len(game.states)):
            orig = game.moves[s]
            copy = back.moves[s]
            assert [m.label for m in copy] == [m.label for m in orig]
            for a, b in zip(orig, copy):
                assert a.branches == b.branches  # decimal strings are exact
                assert a.price == b.price


def _second_player_first():
    """State 0 belongs to player 2, so the owners' first-seen order swaps the
    players; its ``maxmin`` expected price is 1.0, player 2 paying with ``a``."""
    moves = [[Move("a", ((1, 0.0), (2, 1.0)), price=1.0), Move("b", ((1, 1.0),))], [], []]
    return make_game(moves, owner=[2, 1, 2], labels={"goal": [2]}, players=(1, 2))


@pytest.mark.parametrize("make", [
    _second_player_first,
    lambda: coalition_game(_second_player_first(), set()),
], ids=["second-player-first", "player-1-owns-nothing"])
def test_json_round_trip_keeps_the_player_order(make):
    game = make()
    data = tptg.game.to_json_dict(game)
    assert data["players"] == [1, 2]
    back = tptg.from_json(tptg.to_json(game))
    assert back.players == game.players
    assert tptg.to_json(back) == tptg.to_json(game)
    for name in ("prob_reach", "expected_price"):
        for direction in tptg.solver.DIRECTIONS:
            old = getattr(tptg, name)(game, "goal", direction)
            new = getattr(tptg, name)(back, "goal", direction)
            assert (new.values, new.strategy) == (old.values, old.strategy)


def test_json_omits_players_that_the_owners_give_back(fig1_game):
    assert "players" not in tptg.game.to_json_dict(fig1_game)
    assert "players" not in tptg.game.to_json_dict(coalition_game(fig1_game, {"sender"}))


def test_json_digital_labels_round_trip(fig1_game):
    back = tptg.from_json(tptg.to_json(fig1_game))
    assert back.labels == fig1_game.labels
    assert back.owner == fig1_game.owner


def test_json_import_refuses_an_invalid_game():
    data = json.loads(tptg.to_json(make_game([[Move("a", ((1, 1.0),))], []], owner=[1, 2])))
    data["transitions"][0]["branches"][0]["to"] = 7
    with pytest.raises(ModelError) as caught:
        from_json_dict(data)
    assert str(caught.value) == (
        "game JSON fails validation: state 0, action 'a': branch to invalid state 7"
    )
    data["transitions"][0]["branches"][0]["to"] = "1"
    data["initial"] = "0"
    with pytest.raises(ModelError) as caught:
        from_json_dict(data)
    assert str(caught.value) == (
        "game JSON fails validation: initial state '0' out of range; "
        "state 0, action 'a': branch to invalid state '1'"
    )
    # JSON booleans are not state indices, though Python counts them as ints
    data["transitions"][0]["branches"][0]["to"] = True
    data["initial"] = True
    with pytest.raises(ModelError) as caught:
        from_json_dict(data)
    assert str(caught.value) == (
        "game JSON fails validation: initial state True out of range; "
        "state 0, action 'a': branch to invalid state True"
    )
    data["transitions"][0]["branches"][0]["to"] = 1
    data["initial"] = 0
    data["transitions"][0]["from"] = True
    with pytest.raises(ModelError, match="transition from invalid state True"):
        from_json_dict(data)
    data["transitions"][0]["from"] = 0
    from_json_dict(data)  # the game is valid again
    # an owner or player is a string or an integer: not a bool, as True == 1
    # would pass for player 1, nor an unhashable record
    for where, bad in (("owner", True), ("owner", [1]), ("players", [{"a": 1}]), ("players", [1, 2.0])):
        spoiled = json.loads(json.dumps(data))
        if where == "owner":
            spoiled["states"][0]["owner"] = bad
        else:
            spoiled["players"] = bad
        with pytest.raises(ModelError, match="wrongly typed record: an owner or player must be"):
            from_json_dict(spoiled)


def test_json_import_names_a_missing_key():
    data = json.loads(tptg.to_json(make_game([[Move("a", ((1, 1.0),))], []], owner=[1, 2])))
    del data["states"][1]["owner"]
    with pytest.raises(ModelError, match="game JSON is missing key 'owner'"):
        from_json_dict(data)
    data["states"][1]["owner"] = 2
    data["transitions"][0]["from"] = -1
    with pytest.raises(ModelError, match="transition from invalid state -1"):
        from_json_dict(data)


def test_json_import_refuses_non_finite_prices_and_malformed_numbers():
    # a NaN price is not < 0, so it once passed validation and solved to nan;
    # a malformed number once escaped from float() as a bare ValueError
    data = json.loads(tptg.to_json(make_game([[Move("a", ((1, 1.0),))], []], owner=[1, 2])))
    for price in (math.nan, math.inf, -1.0):
        data["transitions"][0]["price"] = price
        with pytest.raises(ModelError) as caught:
            tptg.from_json(json.dumps(data))
        assert str(caught.value) == (
            f"game JSON fails validation: state 0, action 'a': price {price!r} is not a finite number >= 0"
        )
    for key, bad in (("price", "cheap"), ("price", None), ("prob", "1/2")):
        entry = json.loads(tptg.to_json(make_game([[Move("a", ((1, 1.0),))], []], owner=[1, 2])))
        record = entry["transitions"][0]
        (record if key == "price" else record["branches"][0])[key] = bad
        with pytest.raises(ModelError) as caught:
            from_json_dict(entry)
        assert str(caught.value) == f"game JSON has a malformed number {bad!r}"
    # a wrongly typed record once escaped as a bare TypeError
    good = json.loads(tptg.to_json(make_game([[Move("a", ((1, 1.0),))], []], owner=[1, 2])))
    for wrong in (
        {**good, "states": ["x"]},
        {**good, "transitions": ["t"]},
        [good],
        {**good, "transitions": [{**good["transitions"][0], "branches": [3]}]},
        {**good, "players": 5},
        # strings are iterable, but are not the lists the schema asks for
        {**good, "states": [{"owner": 1, "labels": "goal"}, *good["states"][1:]]},
        {**good, "states": [{"owner": 1, "labels": [3]}, *good["states"][1:]]},
        {**good, "players": "12"},
    ):
        with pytest.raises(ModelError, match="^game JSON has a wrongly typed record: "):
            from_json_dict(wrong)


def test_path_validates_support():
    game = make_game(
        [[Move("a", ((1, 1.0),))], []],
        owner=[1, 1],
        players=(1, 2),
    )
    path = TsgPath(game)
    path.extend("a", 1)
    assert path.states == [0, 1]
    with pytest.raises(ModelError):
        TsgPath(game).extend("a", 0)  # not in the support
    with pytest.raises(ModelError):
        TsgPath(game).extend("b", 1)  # unavailable action


def test_game_stats(fig1_game):
    stats = tptg.game_stats(fig1_game)
    assert stats["states"] == len(fig1_game.states)
    assert stats["transitions"] == sum(len(ms) for ms in fig1_game.moves)
    assert set(stats["player_states"]) == {"sender", "medium"}


def test_coalition_and_reprice_views_share_computed_components(fig1_model):
    game = tptg.build(fig1_model)
    early = coalition_game(game, {"sender"})  # derived before any decomposition
    components = early.components
    assert game.components is components  # the view's first use filled the game's
    for coalition in ({"sender"}, {"medium"}, {"sender", "medium"}, set()):
        assert coalition_game(game, coalition).components is components
    assert tptg.reweigh(game, fig1_model).components is components
    assert tptg.build(fig1_model).components == components
    assert sorted(s for states, _ in components for s in states) == list(range(len(game.states)))
    objective = tptg.Objective("prob-reach", "maxmin", "done")
    shared = tptg.solve(early, objective)
    alone = tptg.solve(coalition_game(tptg.build(fig1_model), {"sender"}), objective)
    assert shared.values == alone.values
    assert shared.strategy == alone.strategy


def test_components_are_successors_first_and_flag_cycles():
    game = make_game(
        [
            [Move("a", ((1, 0.5), (2, 0.5)))],
            [Move("a", ((0, 1.0),))],
            [Move("a", ((2, 1.0),))],
            [Move("a", ((1, 1.0),))],
        ],
        owner=[1, 2, 1, 2],
        players=(1, 2),
    )
    assert game.components == (((2,), True), ((0, 1), True), ((3,), False))


def _count_decompositions(monkeypatch) -> list:
    """The state counts `Tsg.components` decomposes from here on, in order."""
    decomposed = []
    search = tptg.game.strongly_connected  # only `Tsg.components` calls it there

    def counted(successors, n):
        decomposed.append(n)
        return search(successors, n)

    monkeypatch.setattr(tptg.game, "strongly_connected", counted)
    return decomposed


def _decompositions(monkeypatch, tmp_path, name) -> int:
    """How many games `Tsg.components` decomposes in the shipped sweep `name`."""
    decomposed = _count_decompositions(monkeypatch)
    assert main(SHIPPED_SWEEPS[name] + ["--csv", str(tmp_path / name)]) == 0
    return len(decomposed)


def test_simulate_decomposes_no_game(monkeypatch, capsys):
    # a simulation never solves, so it needs no SCCs
    decomposed = _count_decompositions(monkeypatch)
    assert main([
        "simulate", "--gen", "taskgraph", "--k1", "1", "--k2", "1", "--p", "1/2",
        "--prop", "Emin [ F all_done ] price time coalition {sched}",
        "--uniform", "--samples", "20",
    ]) == 0
    assert "hits = 20" in capsys.readouterr().out
    assert decomposed == []


def test_the_nonrep_sweep_decomposes_no_game(monkeypatch, tmp_path):
    # the induction over the time budget derives no game and reads no SCC
    assert _decompositions(monkeypatch, tmp_path, "honest_termination_by_T.csv") == 0


@pytest.mark.usefixtures("one_chunk")
def test_the_taskgraph_sweep_decomposes_each_built_game_once(monkeypatch, tmp_path):
    # one per built game: p=0, 1/4 and 1; reweigh and coalition
    # views share it
    assert _decompositions(monkeypatch, tmp_path, "taskgraph_expected_by_p.csv") == 3
