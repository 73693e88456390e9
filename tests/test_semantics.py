import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import tptg
from tptg import (
    ClockConstraint,
    DigitalState,
    ModelError,
    StateLimitError,
    Tptg,
    clock_le,
)
from tptg.cli import main
from tptg.semantics import _Lowered

import retired_builder
from gamegen import naive_digital_reach, random_tptg


def test_fig1_initial_moves(fig1_game):
    moves = fig1_game.moves[fig1_game.initial]
    assert [(m.time, m.action) for m in moves] == [(1, "send"), (2, "send")]


def test_zero_delay_move_has_action_price_only():
    model = Tptg(
        players=("p",),
        locations=("a", "b"),
        initial="a",
        clocks=("x",),
        actions=("go",),
        owner={"a": "p", "b": "p"},
        invariants={"a": clock_le("x", 3), "b": clock_le("x", 3)},
        enabling={("a", "go"): ClockConstraint()},
        transitions={("a", "go"): (tptg.ProbBranch(Fraction(1), frozenset(), "b"),)},
        prices={"cost": tptg.PriceStructure(rates={"a": 5}, action_prices={("a", "go"): 7})},
    )
    moves = tptg.build(model, price="cost").moves[0]
    assert moves[0].time == 0 and moves[0].price == 7
    assert moves[1].time == 1 and moves[1].price == 5 + 7


def test_branch_aggregation_merges_equal_successors():
    # two reset sets produce the same valuation when y is already 0
    model = Tptg(
        players=("p",),
        locations=("a", "b"),
        initial="a",
        clocks=("x", "y"),
        actions=("go",),
        owner={"a": "p", "b": "p"},
        invariants={
            "a": clock_le("x", 2).conjoin(clock_le("y", 2)),
            "b": clock_le("x", 2).conjoin(clock_le("y", 2)),
        },
        enabling={("a", "go"): ClockConstraint()},
        transitions={
            ("a", "go"): (
                tptg.ProbBranch(Fraction(1, 3), frozenset({"x"}), "b"),
                tptg.ProbBranch(Fraction(2, 3), frozenset({"x", "y"}), "b"),
            )
        },
    )
    game = tptg.build(model)
    (zero_delay, *_rest) = game.moves[0]
    assert len(zero_delay.branches) == 1
    (successor, prob) = zero_delay.branches[0]
    assert prob == 1
    assert game.states[successor].values == (0, 0)


def test_build_single_bounded_location_all_deadlocks():
    model = Tptg(
        players=("p",),
        locations=("a",),
        initial="a",
        clocks=("x",),
        actions=(),
        owner={"a": "p"},
        invariants={"a": clock_le("x", 2)},
        enabling={},
        transitions={},
    )
    game = tptg.build(model)
    # no moves at all: only the initial state is ever reached
    assert len(game.states) == 1
    assert game.deadlocks == frozenset({0})


def test_build_initial_state_and_nonempty(fig1_model, fig1_game):
    start = fig1_game.states[fig1_game.initial]
    assert isinstance(start, DigitalState)
    assert start.location == "send"
    assert start.values == (0, 0)
    assert len(fig1_game.states) > 0


def test_build_is_order_stable(fig1_model):
    first = tptg.build(fig1_model)
    second = tptg.build(fig1_model)
    assert [s.location for s in first.states] == [s.location for s in second.states]
    assert first.moves == second.moves
    assert first.labels == second.labels


def test_build_refuses_assumption_violations():
    model = Tptg(
        players=("p",),
        locations=("a",),
        initial="a",
        clocks=("x",),
        actions=(),
        owner={"a": "p"},
        invariants={"a": ClockConstraint()},
        enabling={},
        transitions={},
    )
    with pytest.raises(ModelError):
        tptg.build(model)


def test_build_state_limit(fig1_model):
    errors = []
    for build in (tptg.build, retired_builder.build):
        with pytest.raises(StateLimitError) as caught:
            build(fig1_model, state_limit=5)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_build_refuses_an_edge_violating_the_target_invariant():
    # waiting two units in `a` and moving to `b` without a reset lands on
    # x=2, outside b's invariant x<=1
    model = Tptg(
        players=("p",),
        locations=("a", "b"),
        initial="a",
        clocks=("x",),
        actions=("go",),
        owner={"a": "p", "b": "p"},
        invariants={"a": clock_le("x", 3), "b": clock_le("x", 1)},
        enabling={("a", "go"): tptg.clock_ge("x", 2)},
        transitions={("a", "go"): (tptg.ProbBranch(Fraction(1), frozenset(), "b"),)},
    )
    messages = []
    for build in (tptg.build, retired_builder.build):
        with pytest.raises(ModelError) as caught:
            build(model)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0] == "edge ('a', 'go') reaches (b | x=2), violating the target invariant"


def test_every_state_satisfies_its_invariant(fig1_model, fig1_game):
    for state in fig1_game.states:
        valuation = dict(zip(fig1_model.clocks, state.values))
        assert fig1_model.invariants[state.location].satisfied_by(valuation)


def test_max_delay_bounded_by_ceilings(fig1_model, fig1_game):
    top = 1 + max(tptg.max_constants(fig1_model).values())
    for moves in fig1_game.moves:
        for move in moves:
            assert move.time <= top


def test_branch_mass_exact_in_rationals(fig1_model):
    lowered = _Lowered(fig1_model, None)
    for state in tptg.build(fig1_model).states:
        for _, _, _, outcomes in lowered.moves(state.location, state.values):
            assert sum((p for _, p in outcomes.values()), Fraction(0)) == 1


def test_naive_enumerator_agrees_on_fig1(fig1_model, fig1_game):
    expected = naive_digital_reach(fig1_model)
    actual = {(s.location, s.values) for s in fig1_game.states}
    assert actual == expected


def test_naive_enumerator_agrees_on_faultless_taskgraph():
    model = tptg.gen_taskgraph(0, 0, 1)
    game = tptg.build(model)
    expected = naive_digital_reach(model)
    actual = {(s.location, s.values) for s in game.states}
    assert len(actual) == len(expected)
    assert actual == expected


def test_naive_enumerator_agrees_on_random_models():
    rng = random.Random(20240)
    for _ in range(25):
        model = random_tptg(rng)
        game = tptg.build(model)
        expected = naive_digital_reach(model)
        actual = {(s.location, s.values) for s in game.states}
        assert actual == expected


def test_reprice_swaps_price_structure():
    model = tptg.gen_taskgraph(0, 0, 1)
    timed = tptg.build(model, price="time")
    energetic = tptg.reweigh(timed, model, "energy")
    assert len(energetic.states) == len(timed.states)
    rebuilt = tptg.build(model, price="energy")
    assert energetic.moves == rebuilt.moves


def test_variable_provenance_parsing(taskgraph_k1_p1):
    _, game = taskgraph_k1_p1
    start = game.states[game.initial]
    assert start.location == (
        "decide0#st1=0,st2=0,st3=0,st4=0,st5=0,st6=0,free1=1,free2=1,nrun=0"
        ".idle1.idle2.live#f1=0,f2=0"
    )


def _assert_reprice_equals_rebuild(model):
    """For every ordered pair (a, b) of price structures, None included,
    reweighing the game built under a from `model` to itself under b gives
    the game built under b."""
    prices = [None, *model.prices]
    built = {price: tptg.build(model, price=price) for price in prices}
    for a in prices:
        for b in prices:
            assert tptg.reweigh(built[a], model, b) == built[b], (a, b)  # moves included


REPRICE_MODELS = {
    **{f"taskgraph-{k}-p{p}": (lambda k=k, p=p: tptg.gen_taskgraph(k, k, p))
       for k in range(3) for p in ("0", "1/2", "1")},
    **{f"nonrep-{v}": (lambda v=v: tptg.gen_nonrepudiation(v))
       for v in ("honest", "malicious1", "malicious2")},
}


@pytest.mark.parametrize("make_model", REPRICE_MODELS.values(), ids=REPRICE_MODELS.keys())
def test_reprice_equals_rebuild_on_case_studies(make_model):
    _assert_reprice_equals_rebuild(make_model())


def test_reprice_equals_rebuild_on_fig1_and_random_models(fig1_model):
    _assert_reprice_equals_rebuild(fig1_model)
    rng = random.Random(5)
    for _ in range(20):
        _assert_reprice_equals_rebuild(random_tptg(rng))


def _colliding_moves(game, model) -> int:
    """Moves with fewer branches than their distribution: two or more of
    its branches landed on one state, so the move carries their sum."""
    return sum(
        len(m.branches) < len(model.transitions[state.location, m.action])
        for state, moves in zip(game.states, game.moves) for m in moves
    )


def _assert_reweighs_like_build(models, pairs, prices, targets=None):
    """For each ordered pair (p, q) of `models` keys and each pair of prices
    (a, b), reweighing the game built from models[p] under a to models[q]
    (or to targets[p, q], a model equal to it) under b gives the game built
    from models[q] under b, down to the float bits of every probability and
    price, and shares its components. The game's origin carries a: where
    a is b only the changed distributions' moves are rewritten, and
    otherwise every price is recomputed."""
    built = {(k, price): tptg.build(model, price=price) for k, model in models.items() for price in prices}
    for p, q in pairs:
        target = models[q] if targets is None else targets[p, q]
        for a in prices:
            game = built[p, a]
            components = game.components  # cached before reweighing, so shared
            for b in prices:
                expected = built[q, b]
                reweighed = tptg.reweigh(game, target, b)
                assert reweighed == expected, (p, q, a, b)
                assert [[repr(m) for m in ms] for ms in reweighed.moves] == [
                    [repr(m) for m in ms] for ms in expected.moves
                ], (p, q, a, b)
                assert reweighed.components is components
    return built


PROBABILITIES = ("1/4", "1/2", "3/4")


@pytest.mark.parametrize("k", [0, 1])
def test_reweigh_equals_rebuild_on_taskgraph(k):
    models = {p: tptg.gen_taskgraph(k, k, p) for p in PROBABILITIES}
    pairs = list(itertools.product(PROBABILITIES, repeat=2))
    built = _assert_reweighs_like_build(models, pairs, ("time", "energy"))
    if k:  # the regrouping of collided branches is exercised
        assert all(_colliding_moves(built[p, "time"], models[p]) == 160 for p in PROBABILITIES)


def test_reweigh_equals_rebuild_on_taskgraph_2_2():
    models = {p: tptg.gen_taskgraph(2, 2, p) for p in ("1/4", "3/4")}
    built = _assert_reweighs_like_build(models, [("1/4", "3/4")], ("time", "energy"))
    assert _colliding_moves(built["1/4", "time"], models["1/4"]) > 0


@pytest.mark.parametrize("variant", ["honest", "malicious1", "malicious2"])
def test_reweigh_equals_rebuild_on_cyclic_nonrep_games(variant):
    probabilities = (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2))
    models = {p: tptg.gen_nonrepudiation(variant, p=p) for p in probabilities}
    built = _assert_reweighs_like_build(
        models, list(itertools.product(probabilities, repeat=2)), (None, "time")
    )
    assert all(any(cyclic for _, cyclic in game.components) for game in built.values())


@pytest.mark.parametrize("make_text, probabilities, pairs, prices", [
    (lambda p: tptg.taskgraph_text(0, 0, p), PROBABILITIES, None, ("time", "energy")),
    (lambda p: tptg.taskgraph_text(1, 1, p), PROBABILITIES, None, ("time", "energy")),
    (lambda p: tptg.taskgraph_text(2, 2, p), ("1/4", "3/4"), [("1/4", "3/4")], ("time", "energy")),
    *((lambda p, v=v: tptg.nonrepudiation_text(v, p), ("1/100", "1/10", "1/2"), None, (None, "time"))
      for v in ("honest", "malicious1", "malicious2")),
], ids=["taskgraph-0-0", "taskgraph-1-1", "taskgraph-2-2", "honest", "malicious1", "malicious2"])
def test_instantiate_then_reweigh_equals_build(make_text, probabilities, pairs, prices):
    # a p sweep's route: the model of one row instantiated at the next
    # row's p, and the game of the row reweighed to it
    models = {p: tptg.to_tptg(tptg.parse(make_text(p))) for p in probabilities}
    pairs = pairs or list(itertools.product(probabilities, repeat=2))
    targets = {
        (p, q): tptg.instantiate(models[p], {"p": Fraction(q)}) for p, q in pairs
    }
    assert all(targets[p, q] == models[q] for p, q in pairs)
    _assert_reweighs_like_build(models, pairs, prices, targets)


def test_a_21_value_p_sweep_reweighs_each_interior_row_like_build():
    # a p sweep over 0, 1/20, ..., 1: each interior row's model instantiated
    # from the row before's, whose game is reweighed to it; the collided
    # branches' sums are looked up per landing partition within a call
    values = [Fraction(i, 20) for i in range(21)]
    models = {p: tptg.to_tptg(tptg.parse(tptg.taskgraph_text(1, 1, p))) for p in values}
    pairs = list(zip(values[1:-2], values[2:-1]))
    targets = {(p, q): tptg.instantiate(models[p], {"p": q}) for p, q in pairs}
    built = _assert_reweighs_like_build(models, pairs, ("time",), targets)
    assert all(_colliding_moves(built[p, "time"], models[p]) == 160 for p in values[1:-1])
    # p=0 and p=1 drop fault branches: those rows are built
    for p, q in ((values[0], values[1]), (values[-2], values[-1])):
        assert tptg.reweigh(built[p, "time"], models[q], "time") is None


def test_reweigh_refuses_a_state_whose_collided_branches_would_land_apart():
    # a delay-0 move whose branches collided, at a state whose record is
    # altered so that a clock only one branch resets reads 1: the branches
    # would land apart, so the game was not built from this model
    quarter = tptg.to_tptg(tptg.parse(tptg.taskgraph_text(1, 1, "1/4")))
    half = tptg.instantiate(quarter, {"p": Fraction(1, 2)})
    game = tptg.build(quarter, price="time")
    clocks = list(tptg.max_constants(quarter))
    for s, (state, moves) in enumerate(zip(game.states, game.moves)):
        for m in moves:
            dist = quarter.transitions[state.location, m.action]
            if m.time == 0 and len(m.branches) < len(dist) and dist != half.transitions[state.location, m.action]:
                apart = set(dist[0].resets) ^ set(dist[1].resets)
                if apart:
                    break
        else:
            continue
        break
    else:
        pytest.fail("no delay-0 move with collided branches")
    values = list(state.values)
    values[clocks.index(min(apart))] = 1
    states = list(game.states)
    states[s] = type(state)(state.location, tuple(values))
    altered = game.derive(states=tuple(states), origin=game.origin)
    with pytest.raises(ModelError, match="was not built from this model"):
        tptg.reweigh(altered, half, "time")


def test_a_same_price_reweigh_shares_every_row_and_move_it_does_not_rewrite():
    quarter = tptg.to_tptg(tptg.parse(tptg.taskgraph_text(1, 1, "1/4")))
    half = tptg.instantiate(quarter, {"p": Fraction(1, 2)})
    changed = {key for key, dist in half.transitions.items() if dist != quarter.transitions[key]}
    locations = {location for location, _ in changed}
    game = tptg.build(quarter, price="time")
    reweighed = tptg.reweigh(game, half, "time")
    assert reweighed == tptg.build(half, price="time")
    rewritten = 0
    for state, old, new in zip(game.states, game.moves, reweighed.moves):
        if state.location not in locations:
            assert new is old
            continue
        for m, n in zip(old, new):
            if (state.location, m.action) in changed:
                assert n is not m  # its branches may have collided into one
                rewritten += n.branches != m.branches
            else:
                assert n is m
    assert 0 < rewritten < sum(map(len, game.moves)) // 2
    # a reprice shares each move whose price stays: every delay-0 move here
    energy = tptg.reweigh(game, quarter, "energy")
    assert energy == tptg.build(quarter, price="energy")
    now = [(m, n) for old, new in zip(game.moves, energy.moves) for m, n in zip(old, new) if m.time == 0]
    assert now and all(n is m for m, n in now)
    assert any(n is not m for old, new in zip(game.moves, energy.moves) for m, n in zip(old, new))


@pytest.mark.parametrize("old, new", [
    ((1, 1, "0"), (1, 1, "1/4")),  # p=0 has no fault branches
    ((1, 1, "3/4"), (1, 1, "1")),  # p=1 has one fault branch
    ((1, 1, "1/2"), (2, 1, "1/2")),
], ids=["p0-to-quarter", "three-quarters-to-p1", "k1"])
def test_reweigh_refuses_another_graph(old, new):
    source, model = tptg.gen_taskgraph(*old), tptg.gen_taskgraph(*new)
    assert tptg.reweigh(tptg.build(source), model) is None


def test_reweigh_refuses_what_build_refuses_with_its_message(tmp_path, capsys):
    text = tptg.nonrepudiation_text("malicious1", p=Fraction(1, 10))
    source = tptg.to_tptg(tptg.parse(text))
    zero = text.replace("const p = 1/10;", "const p = 0;")  # branches of probability 0
    model = tptg.to_tptg(tptg.parse(zero))
    assert tptg.reweigh(tptg.build(source), model) is None
    with pytest.raises(ModelError) as refused:
        tptg.build(model)
    assert "digital-semantics prerequisites" in str(refused.value)
    # the CLI builds, where a sweep's row would after reweigh returns None,
    # so it refuses with build's message
    path = tmp_path / "zero.tptg"
    path.write_text(zero, encoding="utf-8")
    assert main(["check", str(path), "--prop", "Pmax [ F r_gains_info ] coalition {R}"]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def test_reweigh_refuses_a_game_that_build_or_reweigh_did_not_return():
    # `origin` names the model and price structure of a game `build` or
    # `reweigh` returned, and equality and repr ignore it; a derived game,
    # a view, a game made by hand and one read from JSON carry none
    model = tptg.gen_taskgraph(0, 0, 1)
    game = tptg.build(model, price="time")
    assert game.origin[0] is model and game.origin[1] == "time"
    bare = dataclasses.replace(game)
    assert bare == game and repr(bare) == repr(game)
    reweighed = tptg.reweigh(game, model, "energy")
    assert reweighed.origin[0] is model and reweighed.origin[1] == "energy"
    others = {
        "bound_time": tptg.bound_time(game, "all_done", 10),
        "coalition_game": tptg.coalition_game(game, {"sched"}),
        "make_game": tptg.make_game(game.moves, game.owner, game.labels),
        "from_json": tptg.from_json(tptg.to_json(game)),
    }
    for name, other in others.items():
        assert other.origin is None, name
        with pytest.raises(ModelError, match="reweigh needs a game that build or reweigh returned"):
            tptg.reweigh(other, model, "energy")


def test_a_copy_of_a_built_game_carries_no_origin():
    # `origin` is no field: a `replace` of a built game and a `Tsg` made
    # from its fields carry none, and `derive` hands on only the one given
    model = tptg.gen_taskgraph(0, 0, 1)
    game = tptg.build(model, price="time")
    assert "origin" not in {f.name for f in dataclasses.fields(tptg.Tsg)}
    copy = dataclasses.replace(game, labels=dict(game.labels))
    assert copy == game and copy.origin is None
    assert tptg.Tsg(**{f.name: getattr(game, f.name) for f in dataclasses.fields(game)}).origin is None
    assert game.derive().origin is None
    assert game.derive(origin=game.origin).origin is game.origin
    with pytest.raises(ModelError, match="reweigh needs a game that build or reweigh returned"):
        tptg.reweigh(copy, model, "energy")


def _assert_builds_like_retired_builder(model, price=None, observer=None):
    """The game `build` returns, or with an `observer` ``(target, bound)``
    the game `bound_time` derives from it, equals the retired builder's:
    the same states, owners and labels, and the same moves down to the
    float bits of every probability and price."""
    built = tptg.build(model, price=price)
    if observer is not None:
        built = tptg.bound_time(built, *observer)
    expected = retired_builder.build(model, price=price, observer=observer)
    assert built.states == expected.states
    assert built.owner == expected.owner
    assert built.labels == expected.labels
    assert [[repr(m) for m in ms] for ms in built.moves] == [
        [repr(m) for m in ms] for ms in expected.moves
    ]


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("price", ("time", "energy"))
def test_build_equals_retired_builder_on_taskgraph(k, price):
    _assert_builds_like_retired_builder(tptg.gen_taskgraph(k, k, Fraction(1, 2)), price)


@pytest.mark.parametrize("variant", ("honest", "malicious1", "malicious2"))
def test_build_equals_retired_builder_on_nonrepudiation(variant):
    model = tptg.gen_nonrepudiation(variant)
    _assert_builds_like_retired_builder(model)
    for bound in (0, 4, 20, 100):
        _assert_builds_like_retired_builder(model, observer=("terminated_ok", bound))


def test_build_equals_retired_builder_on_fig1_and_random_models(fig1_model):
    for price in (None, *fig1_model.prices):
        _assert_builds_like_retired_builder(fig1_model, price)
    for seed in range(100):
        model = random_tptg(random.Random(seed))
        for price in (None, *model.prices):
            _assert_builds_like_retired_builder(model, price)


def test_build_equals_retired_builder_on_time_bounded_labels(fig1_model):
    # the observer clock's label is the one label decided on clock values
    for model, target in [
        (fig1_model, "done"),
        *((random_tptg(random.Random(seed)), "goal") for seed in range(20)),
    ]:
        for bound in (0, 2, 5):
            _assert_builds_like_retired_builder(model, observer=(target, bound))


def _lowered_moves(model, state, price):
    """`_Lowered.moves` as the retired builder's moves, with colliding
    branches summed exactly."""
    return [
        retired_builder.DigitalMove(t, action, tuple((k, p) for k, (_, p) in outcomes.items()), cost)
        for t, action, cost, outcomes in _Lowered(model, price).moves(state.location, state.values)
    ]


def _moves_or_error(enumerate_moves, model, state, price):
    try:
        return enumerate_moves(model, state, price)
    except ModelError as error:
        return str(error)


def test_enumerate_moves_equals_retired_builder_on_every_valuation(fig1_model):
    # every saturated valuation, reachable or not: states outside their
    # invariant have no moves, a lower-bound-only invariant caps the delay
    # at one past full saturation, and a move may break the target invariant
    lower_bounded = Tptg(
        players=("p",),
        locations=("a", "b"),
        initial="a",
        clocks=("x", "y"),
        actions=("go", "stay"),
        owner={"a": "p", "b": "p"},
        invariants={
            "a": tptg.clock_ge("x", 1).conjoin(clock_le("x", 3)).conjoin(clock_le("y", 4)),
            "b": tptg.clock_ge("y", 2),
        },
        enabling={
            ("a", "go"): clock_le("y", 2),
            ("a", "stay"): tptg.clock_ge("y", 1),
            ("b", "go"): tptg.clock_ge("x", 1),
        },
        transitions={
            ("a", "go"): (
                tptg.ProbBranch(Fraction(1, 2), frozenset({"x"}), "b"),
                tptg.ProbBranch(Fraction(1, 2), frozenset(), "b"),
            ),
            ("a", "stay"): (tptg.ProbBranch(Fraction(1), frozenset({"y"}), "a"),),
            ("b", "go"): (tptg.ProbBranch(Fraction(1), frozenset({"x"}), "b"),),
        },
        prices={"cost": tptg.PriceStructure(rates={"a": 2}, action_prices={("b", "go"): 3})},
    )
    for model in (fig1_model, lower_bounded):
        ranges = [range(k + 2) for k in tptg.max_constants(model).values()]
        for location in model.locations:
            for values in itertools.product(*ranges):
                state = DigitalState(location, values)
                for price in (None, *model.prices):
                    assert _moves_or_error(_lowered_moves, model, state, price) == _moves_or_error(
                        retired_builder.enumerate_moves, model, state, price
                    ), (location, values, price)


SHIPPED_MODELS = {
    **{variant: lambda v=variant: tptg.gen_nonrepudiation(v, p=Fraction(1, 10))
       for variant in ("honest", "malicious1", "malicious2")},
    "taskgraph": lambda: tptg.gen_taskgraph(1, 1, Fraction(1, 2)),
}


@pytest.mark.parametrize("name", ["fig1", *SHIPPED_MODELS])
def test_bound_time_equals_the_observer_clock_build(name, fig1_model):
    # bounds 0, 1, one inside the clock ceilings and one past every ceiling
    model = fig1_model if name == "fig1" else SHIPPED_MODELS[name]()
    ceiling = max(tptg.max_constants(model).values())
    for price in (None, *model.prices):
        game = tptg.build(model, price)
        for target in model.labels:
            for bound in (0, 1, ceiling // 2, ceiling + 2):
                derived = tptg.bound_time(game, target, bound)
                expected = retired_builder.build(model, price, observer=(target, bound))
                assert derived == expected, (price, target, bound)
                assert f"{target}_by_{bound}" in derived.labels


def test_bound_time_equals_the_observer_clock_build_on_random_models():
    # random models have zero-delay cycles
    for seed in range(20):
        model = random_tptg(random.Random(seed))
        for price in (None, *model.prices):
            game = tptg.build(model, price)
            for bound in (0, 2, 5):
                expected = retired_builder.build(model, price, observer=("goal", bound))
                assert tptg.bound_time(game, "goal", bound) == expected


def test_bound_time_without_clocks_lets_every_delay_up_to_the_bound_through():
    # with no clock, `build` caps each delay at 1, which stands for every
    # longer one; the observer clock then tells the delays apart
    model = tptg.to_tptg(tptg.parse(
        "player p, q;\n"
        "automaton a {\n  init l;\n"
        "  location l { inv true; rate time 2;\n"
        "    [go] true price time 3 -> 1/2: {} & m + 1/2: {} & l;\n"
        "    [stay] true -> 1: {} & k; }\n"
        "  location m { inv true; [back] true -> 1: {} & l; }\n"
        "  location k { inv true; }\n}\n"
        "owner { l -> p; * -> q; }\nlabel m = m;\n"
    ))
    for price in (None, "time"):
        game = tptg.build(model, price)
        assert max(m.time for ms in game.moves for m in ms) == 1
        for bound in (0, 1, 3):
            expected = retired_builder.build(model, price, observer=("m", bound))
            assert tptg.bound_time(game, "m", bound) == expected


def test_bound_time_refuses_as_build_and_with_time_bound(fig1_model, fig1_game):
    # as the retired builder refuses when given the observer clock
    observer = ("done", 10)
    size = len(retired_builder.build(fig1_model, observer=observer).states)
    for limit in (1, 3, size - 1):
        with pytest.raises(StateLimitError) as built:
            retired_builder.build(fig1_model, state_limit=limit, observer=observer)
        with pytest.raises(StateLimitError) as derived:
            tptg.bound_time(fig1_game, "done", 10, state_limit=limit)
        assert str(derived.value) == str(built.value)
    assert tptg.bound_time(fig1_game, "done", 10, state_limit=size) == retired_builder.build(
        fig1_model, state_limit=size, observer=observer
    )
    for target, bound in (("done", -1), ("nope", 3)):
        with pytest.raises(ModelError) as refused:
            retired_builder.build(fig1_model, observer=(target, bound))
        with pytest.raises(ModelError) as derived:
            tptg.bound_time(fig1_game, target, bound)
        assert str(derived.value) == str(refused.value)
    plain = tptg.make_game([[tptg.Move("a", ((1, 1.0),), 0.0, 1)], []], owner=[1, 1], labels={"goal": {1}})
    with pytest.raises(ModelError, match="bound_time needs a game built from a timed model"):
        tptg.bound_time(plain, "goal", 3)
