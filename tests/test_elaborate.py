"""Elaboration: label extents and owners on composed networks, and the
instantiation of probability constants."""

import importlib.resources
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import tptg
from tptg import ModelError

from retired_label_parsing import label_extent

# Two composed automata and a third one left out of the composition. The
# labels mix location patterns with atoms on both sides inside disjunctions,
# test a value that is never reached (u=3) and a variable of the left-out
# automaton (z).
TWO_AUTOMATA = """
player a, b;
clock x;

automaton left {
  init l0;
  var u: [0..3] init 0;
  location l0 {
    inv x <= 2;
    [step] u <= 1 -> 1: {x} & l0[u' = u + 1];
    [sync] u >= 2 -> 1: {x} & l1;
  }
  location l1 {
    inv x <= 2;
  }
}

automaton right {
  init r0;
  var w: [0..2] init 0;
  location r0 {
    inv x <= 2;
    [hop] w <= 0 -> 1: {} & r1[w' = 1];
    [sync] true -> 1/2: {} & r1[w' = 1] + 1/2: {} & r1[w' = 2];
  }
  location r1 {
    inv x <= 2;
    [sync] true -> 1: {} & r1;
  }
}

automaton spare {
  init s0;
  var z: [0..1] init 0;
  location s0 {
    inv x <= 2;
  }
}

compose left || right;
owner {
  *.r0* -> a;
  l1* -> b;
  * -> b;
}
label mixed = l0* & u=1 | *.r1* & w=2 | l1* & u=2 & w=1;
label never = u=3 | w=1 & u=3;
label spare_var = z=0 | l1*;
label plain = *.r1*;
"""

SOURCES = {
    **{f"taskgraph-{k}-p{p}": (lambda k=k, p=p: tptg.taskgraph_source(k, k, p))
       for k in range(3) for p in ("0", "1/4", "1/2", "1")},
    **{f"nonrep-{v}": (lambda v=v: tptg.nonrepudiation_source(v))
       for v in ("honest", "malicious1", "malicious2")},
    "fig1": lambda: tptg.parse(
        (importlib.resources.files("tptg") / "models" / "fig1.tptg").read_text(encoding="utf-8")
    ),
    "two-automata": lambda: tptg.parse(TWO_AUTOMATA),
}


@pytest.mark.parametrize("make_source", SOURCES.values(), ids=SOURCES.keys())
def test_label_extents_equal_the_name_parsing_oracle(make_source):
    source = make_source()
    model = tptg.to_tptg(source)
    assert set(model.labels) == {label.name for label in source.labels}
    for label in source.labels:
        expected = label_extent(label, model.locations, dict(source.constants))
        assert model.labels[label.name] == expected, label.name


def test_two_automata_labels_and_owners():
    model = tptg.to_tptg(tptg.parse(TWO_AUTOMATA))
    assert model.locations == (
        "l0#u=0.r0#w=0", "l0#u=1.r0#w=0", "l0#u=0.r1#w=1", "l0#u=2.r0#w=0",
        "l0#u=1.r1#w=1", "l1#u=2.r1#w=1", "l1#u=2.r1#w=2", "l0#u=2.r1#w=1",
    )
    assert model.labels["mixed"] == {
        "l0#u=1.r0#w=0", "l0#u=1.r1#w=1", "l1#u=2.r1#w=1", "l1#u=2.r1#w=2",
    }
    assert model.labels["never"] == frozenset()
    assert model.labels["spare_var"] == {"l1#u=2.r1#w=1", "l1#u=2.r1#w=2"}
    assert [model.owner[loc] for loc in model.locations] == ["a", "a", "b", "a", "b", "b", "b", "b"]


def test_owner_rules_that_miss_a_location_name_the_first_in_bfs_order():
    text = TWO_AUTOMATA.replace("  * -> b;\n", "")
    with pytest.raises(ModelError, match=r"owner rules do not cover location 'l0#u=0\.r1#w=1'"):
        tptg.to_tptg(tptg.parse(text))


def _parametric(text: str):
    """The elaborated model of `text` and its factor record."""
    model = tptg.to_tptg(tptg.parse(text))
    return model, model.factors


# both sides of a synchronization read constants or literals other than 1
SYNCHRONIZED = """
const p = {p};
const r = 1/5;
player a;
clock x;
automaton left {{
  init l;
  location l {{ inv x <= 1; [go] true -> p: {{}} & l + 1-p: {{x}} & m; }}
  location m {{ inv x <= 1; [go] true -> 1/2: {{}} & l + 1/2: {{x}} & m; }}
}}
automaton right {{
  init n;
  location n {{ inv x <= 1; [go] true -> 1/3: {{}} & n + 2/3: {{x}} & o; }}
  location o {{ inv x <= 1; [go] true -> r: {{}} & n + 1-r: {{x}} & o; [stop] true -> 1-p: {{}} & o + p: {{}} & n; }}
}}
owner {{ * -> a; }}
"""

INSTANTIATED = {
    "synchronized": (lambda p: SYNCHRONIZED.format(p=p), ("1/4", "1/2", "2/3")),
    **{f"taskgraph-{k}-{k}": (lambda p, k=k: tptg.taskgraph_text(k, k, p), ("1/4", "1/2", "3/4"))
       for k in (1, 2)},
    **{f"nonrep-{v}": (lambda p, v=v: tptg.nonrepudiation_text(v, p), ("1/10", "1/2"))
       for v in ("honest", "malicious1", "malicious2")},
}


@pytest.mark.parametrize("make_text, values", INSTANTIATED.values(), ids=INSTANTIATED.keys())
def test_instantiate_equals_the_front_end_field_for_field(make_text, values):
    for p in values:
        model, factors = _parametric(make_text(p))
        assert factors and all(type(b.prob) is Fraction for d in model.transitions.values() for b in d)
        for q in values:
            source = tptg.parse(make_text(q))
            instantiated = tptg.instantiate(model, dict(source.constants))
            expected = tptg.to_tptg(source)
            for field in fields(tptg.Tptg):
                assert getattr(instantiated, field.name) == getattr(expected, field.name), (p, q, field.name)
                if field.name != "transitions":
                    assert getattr(instantiated, field.name) is getattr(model, field.name)
            for key, dist in instantiated.transitions.items():
                assert (dist is model.transitions[key]) == (key not in factors), (p, q, key)
                assert all(type(b.prob) is Fraction for b in dist)
            # the text elaborated with the factor record gives the same one
            assert _parametric(make_text(q))[1] == factors


def test_the_factor_record_names_each_branchs_factors():
    model, factors = _parametric(tptg.taskgraph_text(1, 1, "1/4"))
    # a fault of a busy processor synchronizes the fault edges of the
    # scheduler, of the processor (p or 1-p) and of the environment
    assert len(factors) == 100 and len(model.transitions) == 898
    assert set(factors.values()) == {(("p",), ("1-p",))}


def test_the_factor_record_keeps_every_factor_but_1():
    model, factors = _parametric(SYNCHRONIZED.format(p="1/4"))
    assert factors == {
        ("l.n", "go"): (("p", Fraction(1, 3)), ("p", Fraction(2, 3)), ("1-p", Fraction(1, 3)), ("1-p", Fraction(2, 3))),
        ("l.o", "go"): (("p", "r"), ("p", "1-r"), ("1-p", "r"), ("1-p", "1-r")),
        ("m.o", "go"): ((Fraction(1, 2), "r"), (Fraction(1, 2), "1-r")) * 2,
        ("l.o", "stop"): (("1-p",), ("p",)),
        ("m.o", "stop"): (("1-p",), ("p",)),
    }
    assert set(model.transitions) - set(factors) == {("m.n", "go")}  # literals alone


def test_instantiate_names_an_unknown_constant():
    model, factors = _parametric(tptg.taskgraph_text(1, 1, "1/4"))
    with pytest.raises(ModelError, match="unknown constant 'p'"):
        tptg.instantiate(model, {"q": Fraction(1, 2)})


NATURAL_AND_PROBABILITY = """
const c = {c};
const q = {q};
player a;
clock x;
automaton m {{
  init l;
  location l {{ inv x <= c; [go] x >= 1 -> q: {{x}} & l + 1-q: {{}} & n; }}
  location n {{ inv x <= c; }}
}}
owner {{ * -> a; }}
"""


def test_instantiate_refuses_a_constant_that_is_no_parameter():
    # the p=0 taskgraph text declares no p, and its model differs from the
    # p=1/2 one in 100 factored distributions
    with pytest.raises(ModelError, match="the model has no probability parameter 'p'"):
        tptg.instantiate(tptg.gen_taskgraph(1, 1, "0"), {"p": Fraction(1, 2)})
    with pytest.raises(ModelError, match="the model has no probability parameter 'zzz'"):
        tptg.instantiate(tptg.gen_taskgraph(1, 1, "1/2"), {"p": Fraction(1, 4), "zzz": Fraction(1, 2)})
    # a natural constant may bound a clock, which the factor record does not
    # cover; a parameter that no branch reads may be set
    model = tptg.to_tptg(tptg.parse(NATURAL_AND_PROBABILITY.format(c=2, q="1/3")))
    assert model.parameters == {"q"}
    with pytest.raises(ModelError, match="the model has no probability parameter 'c'"):
        tptg.instantiate(model, {"q": Fraction(1, 2), "c": Fraction(3)})
    expected = tptg.to_tptg(tptg.parse(NATURAL_AND_PROBABILITY.format(c=2, q="1/2")))
    assert tptg.instantiate(model, {"q": Fraction(1, 2)}) == expected
    assert tptg.instantiate(tptg.gen_taskgraph(0, 0, "1/4"), {"p": Fraction(1, 2)}) == tptg.gen_taskgraph(0, 0, "1/2")


def test_every_elaboration_carries_its_factor_record(fig1_model):
    # `instantiate` reads the record off the model; at p=0 and p=1 no
    # branch of the taskgraph text reads p
    assert len(tptg.gen_taskgraph(1, 1, "1/4").factors) == 100
    assert fig1_model.factors == {}
    assert tptg.gen_taskgraph(1, 1, "0").factors == tptg.gen_taskgraph(1, 1, "1").factors == {}


def test_a_composition_carries_no_factor_record():
    model = tptg.to_tptg(tptg.parse(SYNCHRONIZED.format(p="1/4")))
    assert model.factors and tptg.compose(model, model, model.clocks).factors == {}


def test_equality_and_repr_ignore_the_factor_record():
    model = tptg.to_tptg(tptg.parse(SYNCHRONIZED.format(p="1/4")))
    bare = replace(model, factors={})
    assert model.factors and bare == model
    assert repr(bare) == repr(model) and "factors" not in repr(model)
