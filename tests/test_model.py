from dataclasses import replace
from fractions import Fraction

import pytest

import tptg
from tptg import (
    ClockConstraint,
    ModelError,
    PriceStructure,
    ProbBranch,
    StateLabel,
    Tptg,
    clock_ge,
    clock_le,
    compose,
    errors_only,
    max_constants,
    validate_assumptions,
    with_time_bound,
)


def tiny(rate=0, cap=4):
    """One-location automaton with a self-loop."""
    return Tptg(
        players=("p",),
        locations=("only",),
        initial="only",
        clocks=("x",),
        actions=("tick",),
        owner={"only": "p"},
        invariants={"only": clock_le("x", cap)},
        enabling={("only", "tick"): clock_ge("x", 1)},
        transitions={("only", "tick"): (ProbBranch(Fraction(1), frozenset({"x"}), "only"),)},
        prices={"time": PriceStructure(rates={"only": rate})},
        labels={"loop": StateLabel(frozenset({"only"}))},
    )


def test_max_constants_fig1(fig1_model):
    k = max_constants(fig1_model)
    assert k == {"x": 4, "y": 24}


def test_max_constants_uncompared_clock_is_zero():
    model = tiny()
    bigger = tptg.Tptg(
        players=model.players,
        locations=model.locations,
        initial=model.initial,
        clocks=("x", "z"),
        actions=model.actions,
        owner=dict(model.owner),
        invariants=dict(model.invariants),
        enabling=dict(model.enabling),
        transitions=dict(model.transitions),
        clock_caps={"z": 0},
    )
    assert max_constants(bigger)["z"] == 0


def test_max_constants_ignores_smaller_atoms():
    model = tiny(cap=7)
    assert max_constants(model)["x"] == 7
    richer = Tptg(
        players=model.players,
        locations=model.locations,
        initial=model.initial,
        clocks=model.clocks,
        actions=model.actions,
        owner=dict(model.owner),
        invariants={"only": clock_le("x", 7).conjoin(clock_le("x", 3))},
        enabling=dict(model.enabling),
        transitions=dict(model.transitions),
    )
    assert max_constants(richer)["x"] == 7


def test_validate_assumptions_fig1_clean(fig1_model):
    assert errors_only(validate_assumptions(fig1_model)) == []


def test_unbounded_invariant_diagnosed():
    model = tiny()
    unbounded = Tptg(
        players=model.players,
        locations=model.locations,
        initial=model.initial,
        clocks=model.clocks,
        actions=model.actions,
        owner=dict(model.owner),
        invariants={"only": ClockConstraint()},
        enabling=dict(model.enabling),
        transitions=dict(model.transitions),
    )
    diags = errors_only(validate_assumptions(unbounded))
    assert any("unbounded invariant" in d.message for d in diags)


def test_bad_distribution_mass_diagnosed():
    model = tiny()
    lossy = Tptg(
        players=model.players,
        locations=model.locations,
        initial=model.initial,
        clocks=model.clocks,
        actions=model.actions,
        owner=dict(model.owner),
        invariants=dict(model.invariants),
        enabling=dict(model.enabling),
        transitions={
            ("only", "tick"): (
                ProbBranch(Fraction(1, 2), frozenset(), "only"),
                ProbBranch(Fraction(2, 5), frozenset(), "only"),
            )
        },
    )
    diags = errors_only(validate_assumptions(lossy))
    assert any("mass 9/10" in d.message for d in diags)


def test_zeno_cycle_warned_but_not_error():
    model = tiny()
    lazy = Tptg(
        players=model.players,
        locations=model.locations,
        initial=model.initial,
        clocks=model.clocks,
        actions=model.actions,
        owner=dict(model.owner),
        invariants=dict(model.invariants),
        enabling={("only", "tick"): ClockConstraint()},
        transitions={("only", "tick"): (ProbBranch(Fraction(1), frozenset(), "only"),)},
    )
    diags = validate_assumptions(lazy)
    assert errors_only(diags) == []
    assert any(d.severity == "warning" for d in diags)


def test_compose_with_idle_component_shifts_rates_only():
    base = tiny(rate=2)
    idle = Tptg(
        players=("q",),
        locations=("zzz",),
        initial="zzz",
        clocks=(),
        actions=(),
        owner={"zzz": "q"},
        invariants={"zzz": ClockConstraint()},
        enabling={},
        transitions={},
        prices={"time": PriceStructure(rates={"zzz": 3})},
    )
    product = compose(base, idle, lambda la, lb: "p")
    assert product.locations == ("only.zzz",)
    assert product.initial == "only.zzz"
    # same single edge, untouched distribution
    assert set(product.transitions) == {("only.zzz", "tick")}
    (branch,) = product.transitions[("only.zzz", "tick")]
    assert branch.target == "only.zzz" and branch.prob == 1
    # rates add up across components
    assert product.prices["time"].rate("only.zzz") == 5


def test_compose_product_distribution_with_point_mass():
    left = Tptg(
        players=("p",),
        locations=("a",),
        initial="a",
        clocks=("x",),
        actions=("sync",),
        owner={"a": "p"},
        invariants={"a": clock_le("x", 2)},
        enabling={("a", "sync"): ClockConstraint()},
        transitions={
            ("a", "sync"): (
                ProbBranch(Fraction(1, 2), frozenset({"x"}), "a"),
                ProbBranch(Fraction(1, 2), frozenset(), "a"),
            )
        },
    )
    right = Tptg(
        players=("q",),
        locations=("b",),
        initial="b",
        clocks=(),
        actions=("sync",),
        owner={"b": "q"},
        invariants={"b": ClockConstraint()},
        enabling={("b", "sync"): ClockConstraint()},
        transitions={("b", "sync"): (ProbBranch(Fraction(1), frozenset(), "b"),)},
    )
    product = compose(left, right, lambda la, lb: "p")
    dist = product.transitions[("a.b", "sync")]
    assert sorted(b.prob for b in dist) == [Fraction(1, 2), Fraction(1, 2)]


def test_compose_interleaves_disjoint_alphabets_commutatively():
    left = tiny()
    right = Tptg(
        players=("q",),
        locations=("r0", "r1"),
        initial="r0",
        clocks=("y",),
        actions=("hop",),
        owner={"r0": "q", "r1": "q"},
        invariants={"r0": clock_le("y", 2), "r1": clock_le("y", 2)},
        enabling={("r0", "hop"): ClockConstraint()},
        transitions={("r0", "hop"): (ProbBranch(Fraction(1), frozenset(), "r1"),)},
    )
    ab = compose(left, right, lambda la, lb: "p")
    ba = compose(right, left, lambda la, lb: "p")
    assert {tuple(l.split(".")) for l in ab.locations} == {
        tuple(reversed(l.split("."))) for l in ba.locations
    }
    assert len(ab.transitions) == len(ba.transitions)


def test_compose_associative_up_to_rebracketing():
    def automaton(tag):
        return Tptg(
            players=("p",),
            locations=(f"{tag}0", f"{tag}1"),
            initial=f"{tag}0",
            clocks=(f"c{tag}",),
            actions=(f"hop{tag}",),
            owner={f"{tag}0": "p", f"{tag}1": "p"},
            invariants={f"{tag}0": clock_le(f"c{tag}", 2), f"{tag}1": clock_le(f"c{tag}", 2)},
            enabling={(f"{tag}0", f"hop{tag}"): ClockConstraint()},
            transitions={
                (f"{tag}0", f"hop{tag}"): (ProbBranch(Fraction(1), frozenset(), f"{tag}1"),)
            },
        )

    a, b, c = automaton("a"), automaton("b"), automaton("c")
    owner = lambda la, lb: "p"
    left = compose(compose(a, b, owner), c, owner)
    right = compose(a, compose(b, c, owner), owner)
    # location names re-bracket but the underlying structure is identical
    assert set(left.locations) == set(right.locations)
    assert left.initial == right.initial
    assert set(left.transitions) == set(right.transitions)
    for key in left.transitions:
        assert sorted(
            (br.prob, sorted(br.resets), br.target) for br in left.transitions[key]
        ) == sorted(
            (br.prob, sorted(br.resets), br.target) for br in right.transitions[key]
        )


def test_compose_requires_shared_clock_declaration():
    with pytest.raises(ModelError):
        compose(tiny(), tiny(), lambda la, lb: "p")
    product = compose(tiny(), tiny(), lambda la, lb: "p", shared_clocks={"x"})
    assert product.clocks == ("x",)


def test_compose_owner_must_be_total():
    with pytest.raises(ModelError):
        compose(tiny(), tiny(), {}, shared_clocks={"x"})


def test_with_time_bound_zero_only_initial_states(fig1_model):
    bounded, label = with_time_bound(fig1_model, "done", 0)
    game = tptg.build(bounded)
    # delivery takes at least two time units, so the bounded target is empty
    # among reachable states
    assert game.label_states(label) == frozenset()
    assert errors_only(validate_assumptions(bounded)) == []


def test_with_time_bound_keeps_behaviour(fig1_model):
    bounded, label = with_time_bound(fig1_model, "done", 6)
    game = tptg.build(bounded)
    plain = tptg.build(fig1_model)
    # the observer clock multiplies states but not the underlying moves
    assert game.label_states("done") != frozenset()
    assert game.available_actions(game.initial) == plain.available_actions(plain.initial)


def test_with_time_bound_unknown_label(fig1_model):
    with pytest.raises(ModelError):
        with_time_bound(fig1_model, "nope", 3)


def test_compose_keeps_only_reachable_pairs():
    left = tiny()
    right = Tptg(
        players=("q",),
        locations=("r0", "r1", "orphan"),
        initial="r0",
        clocks=("y",),
        actions=("hop",),
        owner={"r0": "q", "r1": "q", "orphan": "q"},
        invariants={loc: clock_le("y", 2) for loc in ("r0", "r1", "orphan")},
        enabling={("r0", "hop"): ClockConstraint(), ("orphan", "hop"): ClockConstraint()},
        transitions={
            ("r0", "hop"): (ProbBranch(Fraction(1), frozenset(), "r1"),),
            ("orphan", "hop"): (ProbBranch(Fraction(1), frozenset(), "r0"),),
        },
        prices={"time": PriceStructure(rates={"orphan": 9})},
        labels={"lost": StateLabel(frozenset({"orphan"}))},
    )
    product = compose(left, right, lambda la, lb: "p")
    assert product.locations == ("only.r0", "only.r1")
    assert set(product.transitions) == {
        ("only.r0", "tick"), ("only.r0", "hop"), ("only.r1", "tick"),
    }
    assert product.prices["time"].rates == {}
    assert product.labels["lost"].locations == frozenset()
    assert product.labels["loop"].locations == frozenset(product.locations)


def test_compose_rejects_label_with_conflicting_guards():
    def guarded(bound):
        model = tiny()
        return replace(
            model, labels={"loop": StateLabel(frozenset({"only"}), clock_le("x", bound))}
        )

    with pytest.raises(ModelError, match="different clock guards"):
        compose(guarded(1), guarded(2), lambda la, lb: "p", shared_clocks={"x"})
    same = compose(guarded(1), guarded(1), lambda la, lb: "p", shared_clocks={"x"})
    assert same.labels["loop"] == StateLabel(frozenset({"only.only"}), clock_le("x", 1))


def test_compose_rejects_two_pairs_with_one_name():
    def chain(player, first, second, action):
        return Tptg(
            players=(player,),
            locations=(first, second),
            initial=first,
            clocks=(),
            actions=(action,),
            owner={first: player, second: player},
            invariants={first: ClockConstraint(), second: ClockConstraint()},
            enabling={(first, action): ClockConstraint()},
            transitions={(first, action): (ProbBranch(Fraction(1), frozenset(), second),)},
        )

    left = chain("p", "x", "x.y", "go")
    right = chain("q", "y.z", "z", "hop")
    with pytest.raises(ModelError) as raised:
        compose(left, right, lambda la, lb: "p")
    message = str(raised.value)
    assert "('x', 'y.z')" in message and "('x.y', 'z')" in message and "'x.y.z'" in message
