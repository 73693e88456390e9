"""From parsed model text to a core timed game.

Elaboration resolves constants, folds bounded discrete variables into
location names, converts each component automaton, composes the network
with synchronization on shared action names, assigns owners to product
locations by first-matching pattern rule, and materializes label extents.
Every location, of a component and of the network, is reachable from the
initial one. A label's variable atoms are decided on the component that
declares the variable and carried to the product by composition, so no
location name is ever parsed back.

Each distribution that reads a probability constant is recorded with each
branch's factors in the model's `factors`, so `instantiate` can set the
constants of an elaborated model without elaborating it again.
"""

from collections import deque
from dataclasses import replace
from fnmatch import fnmatchcase
from fractions import Fraction
from math import prod
from typing import Mapping

from .clocks import ClockConstraint, Atom
from .dsl import (
    Assign,
    AutomatonAst,
    GuardAtom,
    LabelAst,
    ModelSource,
    ProbValue,
    PropertyAst,
    resolve_prob,
)
from .errors import ModelError, _gc_paused
from .model import PriceStructure, ProbBranch, Tptg, compose


def _resolve_int(value, constants: dict[str, Fraction], what: str) -> int:
    if isinstance(value, int):
        return value
    if value not in constants:
        raise ModelError(f"{what}: unknown constant {value!r}")
    resolved = constants[value]
    if resolved.denominator != 1 or resolved < 0:
        raise ModelError(f"{what}: constant {value!r} is not a natural number")
    return int(resolved)


def _resolve_prob(value: ProbValue, constants: Mapping[str, Fraction]) -> Fraction:
    try:
        return resolve_prob(value, constants)
    except KeyError as exc:
        raise ModelError(f"unknown constant {exc.args[0]!r}") from None


#: one branch's factors: literals other than 1, constant names and
#: complements "1-NAME"
Factors = tuple[ProbValue, ...]


class _Factored(Fraction):
    """A branch probability, while elaborating, that remembers the factors
    it is the product of: `compose` multiplies two branches under
    synchronization, and the product keeps both sides' factors."""

    def __new__(cls, value: Fraction, factors: Factors):
        self = super().__new__(cls, value.numerator, value.denominator)
        self.factors = factors
        return self

    def __mul__(self, other):
        return _Factored(Fraction.__mul__(self, other), self.factors + _factors(other))

    def __rmul__(self, other):
        return _Factored(Fraction.__mul__(self, other), _factors(other) + self.factors)


def _factors(prob: Fraction) -> Factors:
    if isinstance(prob, _Factored):
        return prob.factors
    return () if prob == 1 else (prob,)


def _clock_constraint(atoms: tuple[GuardAtom, ...], clocks: set[str], constants) -> ClockConstraint:
    converted = []
    for atom in atoms:
        if atom.subject in clocks:
            converted.append(
                Atom(atom.subject, atom.op, _resolve_int(atom.value, constants, f"atom on {atom.subject}"))
            )
    return ClockConstraint(tuple(converted))


def _var_atoms_hold(atoms, values: dict[str, int], constants) -> bool:
    for atom in atoms:
        if atom.subject not in values:
            continue
        bound = _resolve_int(atom.value, constants, f"atom on {atom.subject}")
        actual = values[atom.subject]
        ok = (
            actual <= bound if atom.op == "<=" else
            actual >= bound if atom.op == ">=" else
            actual == bound
        )
        if not ok:
            return False
    return True


def _apply_assigns(
    assigns: tuple[Assign, ...],
    values: dict[str, int],
    bounds: dict[str, tuple[int, int]],
    where: str,
) -> dict[str, int]:
    updated = dict(values)
    for assign in assigns:
        new = assign.offset if assign.base is None else values[assign.base] + assign.offset
        low, high = bounds[assign.variable]
        if not low <= new <= high:
            raise ModelError(
                f"{where}: update sets {assign.variable} to {new}, outside [{low}..{high}]"
            )
        updated[assign.variable] = new
    return updated


def _atom_label(atom: GuardAtom) -> str:
    return f"{atom.subject}={atom.value}"


def _mangle(location: str, order: list[str], values: dict[str, int]) -> str:
    if not order:
        return location
    suffix = ",".join(f"{name}={values[name]}" for name in order)
    return f"{location}#{suffix}"


def unfold_automaton(auto: AutomatonAst, source: ModelSource) -> Tptg:
    """Single-component timed game with discrete variables folded into locations.

    Only locations (and variable values) reachable from the initial one
    through the component's own edges are materialized (synchronization can
    only remove behaviour, so this over-approximates product reachability).
    The owner map is empty; the network step assigns owners.
    Every label atom on the component's own variables becomes a label named
    after the atom (e.g. ``st1=3``) whose extent is the locations where the
    atom holds. A branch probability that reads a constant is a
    `_Factored` one, for `to_tptg`'s factor record.
    """
    constants = dict(source.constants)
    clocks = set(source.clocks)
    var_order = [v.name for v in auto.variables]
    bounds = {v.name: (v.low, v.high) for v in auto.variables}
    locdefs = {loc.name: loc for loc in auto.locations}
    atoms = {
        _atom_label(atom): atom
        for label in source.labels
        for clause in label.clauses
        for atom in clause.var_atoms
        if atom.subject in bounds
    }
    atom_extents: dict[str, set[str]] = {atom_name: set() for atom_name in atoms}

    initial_values = {v.name: v.init for v in auto.variables}
    initial = _mangle(auto.init, var_order, initial_values)

    worklist = deque([(auto.init, tuple(initial_values[n] for n in var_order))])
    seen = {worklist[0]}

    locations: list[str] = []
    invariants: dict[str, ClockConstraint] = {}
    enabling: dict[tuple[str, str], ClockConstraint] = {}
    transitions: dict[tuple[str, str], tuple[ProbBranch, ...]] = {}
    rates: dict[str, dict[str, int]] = {}
    action_prices: dict[str, dict[tuple[str, str], int]] = {}
    # the alphabet is every action written on an edge, reached or not, so
    # that a partner's edge with that action waits for this component
    actions = tuple(dict.fromkeys(e.action for loc in auto.locations for e in loc.edges))

    while worklist:
        base, packed = worklist.popleft()
        values = dict(zip(var_order, packed))
        name = _mangle(base, var_order, values)
        locdef = locdefs[base]
        locations.append(name)
        for atom_name, atom in atoms.items():
            if _var_atoms_hold((atom,), values, constants):
                atom_extents[atom_name].add(name)
        invariants[name] = _clock_constraint(locdef.invariant, clocks, constants)
        for rate in locdef.rates:
            per_location = rates.setdefault(rate.structure, {})
            per_location[name] = per_location.get(name, 0) + rate.value
        for edge in locdef.edges:
            if not _var_atoms_hold(edge.guard, values, constants):
                continue
            if (name, edge.action) in transitions:
                raise ModelError(
                    f"automaton {auto.name!r}: location {base!r} has two edges "
                    f"labelled {edge.action!r}"
                )
            branches = []
            for branch in edge.branches:
                where = f"automaton {auto.name!r}, edge ({base!r}, {edge.action!r})"
                new_values = _apply_assigns(branch.assigns, values, bounds, where)
                target = _mangle(branch.target, var_order, new_values)
                key = (branch.target, tuple(new_values[n] for n in var_order))
                if key not in seen:
                    seen.add(key)
                    worklist.append(key)
                prob = _resolve_prob(branch.prob, constants)
                if not isinstance(branch.prob, Fraction):
                    prob = _Factored(prob, (branch.prob,))
                branches.append(ProbBranch(prob, frozenset(branch.resets), target))
            enabling[(name, edge.action)] = _clock_constraint(edge.guard, clocks, constants)
            transitions[(name, edge.action)] = tuple(branches)
            for price in edge.prices:
                action_prices.setdefault(price.structure, {})[(name, edge.action)] = price.value

    structure_names = sorted(set(rates) | set(action_prices))
    prices = {
        n: PriceStructure(rates.get(n, {}), action_prices.get(n, {}))
        for n in structure_names
    }
    return Tptg(
        players=tuple(source.players),
        locations=tuple(locations),
        initial=initial,
        clocks=tuple(source.clocks),
        actions=actions,
        owner={},
        invariants=invariants,
        enabling=enabling,
        transitions=transitions,
        prices=prices,
        labels={n: frozenset(extent) for n, extent in atom_extents.items()},
    )


def _owner_for(rules, name: str) -> str:
    for rule in rules:
        if fnmatchcase(name, rule.pattern):
            return rule.player
    raise ModelError(
        f"owner rules do not cover location {name!r}; add a catch-all rule"
    )


def _label_extent(label: LabelAst, network: Tptg) -> frozenset[str]:
    """Locations where some clause holds: the network's label of every
    variable atom (see `unfold_automaton`) contains the location, and every
    pattern matches its name. An atom on a variable outside the network
    never holds."""
    extent = set()
    for clause in label.clauses:
        candidates = set(network.locations)
        for atom in clause.var_atoms:
            candidates &= network.labels.get(_atom_label(atom), frozenset())
        extent.update(
            name for name in candidates
            if all(fnmatchcase(name, pattern) for pattern in clause.patterns)
        )
    return frozenset(extent)


@_gc_paused
def to_tptg(source: ModelSource) -> Tptg:
    """Elaborate a parsed model into the composed timed game, with its
    factor record in `factors` (for each distribution that reads a
    probability constant, each branch's factors) and `parameters`."""
    if not source.players:
        raise ModelError("model declares no players")
    declared_vars: set[str] = set()
    for auto in source.automata:
        for v in auto.variables:
            if v.name in declared_vars:
                raise ModelError(
                    f"variable {v.name!r} is declared by more than one automaton"
                )
            declared_vars.add(v.name)

    components = [
        unfold_automaton(source.automaton(name), source) for name in source.compose
    ]
    network = components[0]
    for component in components[1:]:
        network = compose(network, component, source.clocks)
    owner = {loc: _owner_for(source.owners, loc) for loc in network.locations}

    labels = {label.name: _label_extent(label, network) for label in source.labels}
    for label in source.labels:
        for clause in label.clauses:
            for atom in clause.var_atoms:
                if atom.subject not in declared_vars:
                    raise ModelError(
                        f"label {label.name!r} tests unknown variable {atom.subject!r}"
                    )
    factors = {
        key: tuple(_factors(b.prob) for b in dist)
        for key, dist in network.transitions.items()
        if any(isinstance(b.prob, _Factored) for b in dist)
    }
    # at the model's own constants, every factored probability becomes a Fraction
    transitions = _instantiated(network.transitions, factors, dict(source.constants))
    parameters = frozenset(name for name, value in source.constants if value.denominator != 1)
    return replace(network, owner=owner, labels=labels, transitions=transitions, factors=factors,
                   parameters=parameters)


def _instantiated(transitions: Mapping, factors: Mapping, values: Mapping[str, Fraction]) -> dict:
    instantiated = dict(transitions)
    for key, per_branch in factors.items():
        instantiated[key] = tuple(
            ProbBranch(prod((_resolve_prob(f, values) for f in fs), start=Fraction(1)), b.resets, b.target)
            for fs, b in zip(per_branch, transitions[key])
        )
    return instantiated


@_gc_paused
def instantiate(model: Tptg, values: Mapping[str, Fraction]) -> Tptg:
    """`model`, elaborated by `to_tptg`, with probability constants set to
    `values`, read through its factor record: equal to the elaboration of
    its text with those values, and sharing every field and every
    distribution with `model` but the distributions that read a constant
    (the parametric model instantiated per valuation of Quatmann, Dehnert,
    Jansen, Junges & Katoen, ATVA 2016). A value for a constant that is not
    one of the model's `parameters` is refused: an integer position may read
    it, or the model has no such constant."""
    transitions = _instantiated(model.transitions, model.factors, values)
    for name in values:
        if name not in model.parameters:
            raise ModelError(f"the model has no probability parameter {name!r}")
    return replace(model, transitions=transitions)


def describe_property(prop: PropertyAst) -> str:
    text = f"{prop.query}[F {prop.target}]"
    if prop.bound is not None:
        text += f"<={prop.bound}"
    if prop.price is not None:
        text += f" price {prop.price}"
    return text + " {" + ",".join(prop.coalition) + "}"
