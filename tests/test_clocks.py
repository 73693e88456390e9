import pytest
from hypothesis import given, strategies as st

from tptg import Atom, ClockConstraint, ModelError, TRUE, clock_ge, clock_le

from retired_builder import ClockValuation


def valuation(values: dict[str, int], ceilings: dict[str, int]) -> ClockValuation:
    clocks = tuple(values)
    return ClockValuation(clocks, tuple(values[x] for x in clocks),
                          tuple(ceilings[x] for x in clocks))


def test_satisfies_conjunction():
    v = valuation({"x": 1, "y": 3}, {"x": 5, "y": 5})
    constraint = clock_le("x", 2).conjoin(clock_ge("y", 3))
    assert v.satisfies(constraint)


def test_empty_conjunction_is_true():
    v = ClockValuation.zero({"x": 4})
    assert v.satisfies(TRUE)


def test_saturated_value_compares_as_number_beyond_ceiling():
    # a clock stuck at ceiling+1 fails any upper bound at the ceiling
    v = valuation({"x": 5}, {"x": 4})
    assert not v.satisfies(clock_le("x", 4))
    assert v.satisfies(clock_ge("x", 4))


def test_reset_all_and_none():
    zero = ClockValuation.zero({"x": 3, "y": 3})
    v = valuation({"x": 3, "y": 5}, {"x": 9, "y": 9})
    assert zero.reset([]) == zero
    assert v.reset(["x"]).as_dict() == {"x": 0, "y": 5}
    assert v.reset(["x", "y"]) == ClockValuation.zero({"x": 9, "y": 9})


def test_reset_unknown_clock_rejected():
    v = ClockValuation.zero({"x": 3})
    with pytest.raises(ModelError):
        v.reset(["z"])


def test_advance_saturates_per_clock():
    assert ClockValuation.zero({"x": 4}).advance(0) == ClockValuation.zero({"x": 4})
    v = valuation({"x": 3}, {"x": 4})
    assert v.advance(5).as_dict() == {"x": 5}
    w = valuation({"x": 2, "y": 1}, {"x": 9, "y": 2})
    assert w.advance(2).as_dict() == {"x": 4, "y": 3}


def test_unknown_clock_lookup_rejected():
    v = ClockValuation.zero({"x": 1})
    with pytest.raises(ModelError):
        v.satisfies(clock_le("q", 1))


def test_strict_and_negative_atoms_rejected():
    with pytest.raises(ModelError):
        Atom("x", "<", 3)
    with pytest.raises(ModelError):
        Atom("x", "<=", -1)


@given(
    v0=st.integers(min_value=0, max_value=6),
    s=st.integers(min_value=0, max_value=8),
    t=st.integers(min_value=0, max_value=8),
    ceiling=st.integers(min_value=0, max_value=5),
)
def test_advance_is_additive_under_saturation(v0, s, t, ceiling):
    v = valuation({"x": min(v0, ceiling + 1)}, {"x": ceiling})
    assert v.advance(s).advance(t) == v.advance(s + t)


@given(st.data())
def test_endpoint_checks_cover_all_intermediate_times(data):
    # for closed conjunctions, holding at both ends of a delay is the same
    # as holding at every intermediate unit
    ceiling = 6
    v0 = data.draw(st.integers(min_value=0, max_value=ceiling), label="v0")
    t = data.draw(st.integers(min_value=0, max_value=ceiling + 2), label="t")
    atoms = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["<=", ">="]), st.integers(0, ceiling)),
            max_size=4,
        ),
        label="atoms",
    )
    constraint = ClockConstraint(tuple(Atom("x", op, b) for op, b in atoms))
    v = valuation({"x": v0}, {"x": ceiling})
    endpoint = v.satisfies(constraint) and v.advance(t).satisfies(constraint)
    everywhere = all(v.advance(u).satisfies(constraint) for u in range(t + 1))
    assert endpoint == everywhere
