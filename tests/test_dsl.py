from fractions import Fraction

import pytest

import tptg
from tptg import ModelError, ParseError, parse, parse_property, to_tptg
from tptg.casestudies import nonrepudiation_text, taskgraph_text
from tptg.cli import property_game
from tptg.model import errors_only, validate_assumptions
from tptg.semantics import DEFAULT_STATE_LIMIT
from tptg.solver import Objective

from printer import print_model


def test_fig1_parses_to_expected_shape(fig1_source, fig1_model):
    assert len(fig1_model.locations) == 5
    assert len(fig1_model.clocks) == 2
    assert len(fig1_model.players) == 2
    assert fig1_model.initial == "send"
    assert fig1_model.owner["medium"] == "medium"
    assert fig1_model.owner["send"] == "sender"
    assert len(fig1_source.props) == 3


def test_strict_inequality_rejected():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l { inv x <= 3; [go] x < 3 -> 1: {} & l; }
    }
    owner { * -> p; }
    """
    with pytest.raises(ParseError, match="strict inequalities not allowed"):
        parse(text)


def test_bad_distribution_mass_rejected():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l { inv x <= 3; [go] true -> 0.5: {} & l + 0.4: {} & l; }
    }
    owner { * -> p; }
    """
    with pytest.raises(ParseError, match="probabilities sum to 9/10"):
        parse(text)


def test_diagonal_constraint_rejected():
    text = """
    player p;
    clock x, y;
    automaton a {
      init l;
      location l { inv x <= 3 & y <= 3; [go] x <= y -> 1: {} & l; }
    }
    owner { * -> p; }
    """
    with pytest.raises(ParseError, match="diagonal"):
        parse(text)


def test_unknown_clock_rejected():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l { inv x <= 3; [go] z >= 1 -> 1: {} & l; }
    }
    owner { * -> p; }
    """
    with pytest.raises(ParseError, match="unknown clock or variable"):
        parse(text)


def test_unknown_reset_rejected():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l { inv x <= 3; [go] true -> 1: {q} & l; }
    }
    owner { * -> p; }
    """
    with pytest.raises(ParseError, match="unknown clock"):
        parse(text)


def test_duplicate_edge_action_rejected():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l {
        inv x <= 3;
        [go] x >= 1 -> 1: {} & l;
        [go] x >= 2 -> 1: {} & l;
      }
    }
    owner { * -> p; }
    """
    with pytest.raises(ModelError, match="two edges"):
        to_tptg(parse(text))


def test_parse_error_carries_position():
    try:
        parse("player p;\nclock x;\nautomaton a { init l; location l { inv x < 3; } }")
    except ParseError as err:
        assert err.line == 3
        assert err.column > 0
    else:
        raise AssertionError("expected a parse error")


def test_unbounded_invariant_rejected_at_elaboration():
    text = """
    player p;
    clock x;
    automaton a {
      init l;
      location l { inv true; }
    }
    owner { * -> p; }
    """
    model = to_tptg(parse(text))
    diags = errors_only(validate_assumptions(model))
    assert any("unbounded invariant" in d.message for d in diags)
    with pytest.raises(ModelError, match="unbounded invariant"):
        tptg.build(model)


def corpus():
    sources = [("fig1", None)]
    texts = {
        "honest-0.01": nonrepudiation_text("honest", Fraction(1, 100)),
        "honest-0.1": nonrepudiation_text("honest", Fraction(1, 10)),
        "malicious1": nonrepudiation_text("malicious1", Fraction(1, 10)),
        "malicious2": nonrepudiation_text("malicious2", Fraction(1, 10)),
        "taskgraph-1-1-1": taskgraph_text(1, 1, 1),
        "taskgraph-2-2-half": taskgraph_text(2, 2, Fraction(1, 2)),
    }
    return texts


def test_round_trip_on_generated_corpus(fig1_text):
    texts = dict(corpus())
    texts["fig1"] = fig1_text
    for name, text in texts.items():
        first = parse(text)
        printed = print_model(first)
        second = parse(printed)
        assert second == first, f"round trip failed for {name}"
        assert print_model(second) == printed, f"printing is not stable for {name}"


def test_generators_are_deterministic():
    assert nonrepudiation_text("malicious2", Fraction(1, 10)) == nonrepudiation_text(
        "malicious2", Fraction(1, 10)
    )
    assert taskgraph_text(1, 1, Fraction(1, 2)) == taskgraph_text(1, 1, Fraction(1, 2))


def test_generated_models_pass_assumption_checks():
    for text in corpus().values():
        model = to_tptg(parse(text))
        assert errors_only(validate_assumptions(model)) == []


def test_generator_rejects_bad_parameters():
    with pytest.raises(ModelError):
        nonrepudiation_text("honest", 0)
    with pytest.raises(ModelError):
        nonrepudiation_text("honest", Fraction(3, 2))
    with pytest.raises(ModelError):
        nonrepudiation_text("weird", Fraction(1, 2))
    with pytest.raises(ModelError):
        taskgraph_text(-1, 0, 1)
    with pytest.raises(ModelError):
        taskgraph_text(0, 0, 0.25)  # floats are not exact


def test_honest_model_has_empty_gain_label():
    model = tptg.gen_nonrepudiation("honest", p=Fraction(1, 2))
    assert model.labels["r_gains_info"] == frozenset()
    assert model.labels["terminated_ok"] != frozenset()


def test_taskgraph_faultless_has_no_fault_edges():
    model = tptg.gen_taskgraph(0, 0, 1)
    assert not any(action.startswith("fault") for (_, action) in model.transitions)
    zero_p = tptg.gen_taskgraph(2, 2, 0)
    assert not any(action.startswith("fault") for (_, action) in zero_p.transitions)


def test_parse_property_forms(fig1_text):
    # fig1 with a time structure, so that the priced property can be built
    source = parse(fig1_text.replace("[send] x >= 1", "rate time 1;\n    [send] x >= 1"))
    model = to_tptg(source)
    games = {}
    prop = parse_property("Pmax [ F done ] <= 10 coalition {sender, medium}", source)
    objective, game = property_game(model, prop, DEFAULT_STATE_LIMIT, games)
    assert objective == Objective("prob-reach", "maxmin", "done_by_10")
    assert set(game.owner) == {1}

    prop = parse_property("Emin [ F done ] price time coalition {}", source)
    objective, game = property_game(model, prop, DEFAULT_STATE_LIMIT, games)
    assert objective == Objective("exp-price", "minmax", "done", price="time")
    assert set(game.owner) == {2}
    assert any(move.price for moves in game.moves for move in moves)

    with pytest.raises(ParseError):
        parse_property("Pbest [ F done ] coalition {sender}", source)
    with pytest.raises(ParseError):
        parse_property("Pmax [ F done ] coalition {stranger}", source)


@pytest.mark.parametrize("edge_place", ["unreachable location", "variable guard"])
def test_action_on_an_edge_never_taken_still_synchronizes(edge_place):
    # a never takes its `sync` edge, so b's `sync` edge must stay blocked
    if edge_place == "unreachable location":
        a_body = """
          location l0 { inv x <= 1; }
          location dead { inv x <= 1; [sync] true -> 1: {} & l0; }
        """
    else:
        a_body = """
          var v: [0..1] init 0;
          location l0 { inv x <= 1; [sync] v = 1 -> 1: {} & l0; }
        """
    text = f"""
    player p;
    clock x;
    automaton a {{
      init l0;
      {a_body}
    }}
    automaton b {{
      init m0;
      location m0 {{ inv x <= 1; [sync] true -> 1: {{}} & m1; }}
      location m1 {{ inv x <= 1; }}
    }}
    compose a || b;
    owner {{ * -> p; }}
    """
    model = to_tptg(parse(text))
    assert len(model.locations) == 1
    assert "sync" in model.actions
    assert model.transitions == {}


COMPLEMENT = """
const q = 1/3;
player p;
clock x;
automaton a {
  init l;
  location l { inv x <= 3; [go] true -> q: {} & l + 1-q: {x} & m; }
  location m { inv x <= 3; }
}
owner { * -> p; }
"""


def test_the_complement_of_a_constant_parses_prints_and_elaborates():
    source = parse(COMPLEMENT)
    (edge,) = source.automata[0].locations[0].edges
    assert [b.prob for b in edge.branches] == ["q", "1-q"]
    printed = print_model(source)
    assert "[go] true -> q: {} & l + 1-q: {x} & m;" in printed
    assert parse(printed) == source
    assert parse(COMPLEMENT.replace("1-q", "1 - q")) == source
    model = to_tptg(source)
    assert [b.prob for b in model.transitions["l", "go"]] == [Fraction(1, 3), Fraction(2, 3)]


@pytest.mark.parametrize("branches, message", [
    ("q: {} & l + 1-r: {x} & m", "unknown constant 'r'"),
    ("1-q: {} & l + 1-q: {x} & m", "probabilities sum to 4/3"),
    ("q: {} & l + 1-q: {x} & m + 1/3: {} & m", "probabilities sum to 4/3"),
])
def test_the_complement_of_a_constant_is_checked_at_parse_time(branches, message):
    with pytest.raises(ParseError, match=message):
        parse(COMPLEMENT.replace("q: {} & l + 1-q: {x} & m", branches))
