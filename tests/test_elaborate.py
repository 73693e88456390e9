"""Elaboration: label extents and owners on composed networks."""

import importlib.resources

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
        assert model.labels[label.name].locations == expected, label.name


def test_two_automata_labels_and_owners():
    model = tptg.to_tptg(tptg.parse(TWO_AUTOMATA))
    assert model.locations == (
        "l0#u=0.r0#w=0", "l0#u=1.r0#w=0", "l0#u=0.r1#w=1", "l0#u=2.r0#w=0",
        "l0#u=1.r1#w=1", "l1#u=2.r1#w=1", "l1#u=2.r1#w=2", "l0#u=2.r1#w=1",
    )
    assert model.labels["mixed"].locations == {
        "l0#u=1.r0#w=0", "l0#u=1.r1#w=1", "l1#u=2.r1#w=1", "l1#u=2.r1#w=2",
    }
    assert model.labels["never"].locations == frozenset()
    assert model.labels["spare_var"].locations == {"l1#u=2.r1#w=1", "l1#u=2.r1#w=2"}
    assert [model.owner[loc] for loc in model.locations] == ["a", "a", "b", "a", "b", "b", "b", "b"]


def test_owner_rules_that_miss_a_location_name_the_first_in_bfs_order():
    text = TWO_AUTOMATA.replace("  * -> b;\n", "")
    with pytest.raises(ModelError, match=r"owner rules do not cover location 'l0#u=0\.r1#w=1'"):
        tptg.to_tptg(tptg.parse(text))
