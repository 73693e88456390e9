"""Textual modeling language: lexer, parser and AST.

A model file declares rational constants, players, clocks and component
automata (locations with invariants, rates, and guarded probabilistic
edges over clocks and bounded discrete variables), then composes the
components, assigns product locations to players, names target labels, and
lists properties. Parsing is one-pass with declare-before-use constants;
all errors carry line/column positions and a fix hint.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Union

from .errors import ParseError, _gc_paused

KEYWORDS = {
    "const", "player", "clock", "automaton", "var", "init", "location",
    "inv", "rate", "price", "label", "owner", "compose", "prop", "true",
    "coalition",
}

QUERIES = ("Pmax", "Pmin", "Emax", "Emin")

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_*][A-Za-z0-9_.*#]*)
  | (?P<punct>->|<=|>=|\|\||\.\.|[{}\[\]();:,&+\-|=/'<>*])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "decimal" | "punct" | "eof"
    text: str
    line: int
    column: int


def lex(text: str) -> Iterator[Token]:
    line, column, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column,
                             "remove or replace it")
        pos = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "nl":
            line += 1
            column = 1
            continue
        if kind in ("ws", "comment"):
            column += len(value)
            continue
        if kind == "number":
            token_kind = "decimal" if "." in value else "int"
        elif kind == "ident":
            token_kind = "ident"
        else:
            token_kind = "punct"
        yield Token(token_kind, value, line, column)
        column += len(value)
    yield Token("eof", "", line, column)


# ---------------------------------------------------------------- AST types

ProbValue = Union[Fraction, str]  # literal rational, constant name or its complement "1-NAME"
IntValue = Union[int, str]


def resolve_prob(value: ProbValue, constants: Mapping[str, Fraction]) -> Fraction:
    """The probability `value` denotes under `constants`; a KeyError names
    an unknown constant."""
    if isinstance(value, Fraction):
        return value
    name = value.removeprefix("1-")
    return constants[name] if name == value else 1 - constants[name]


@dataclass(frozen=True)
class GuardAtom:
    subject: str
    op: str  # "<=", ">=", "="
    value: IntValue


@dataclass(frozen=True)
class Assign:
    variable: str
    base: str | None  # variable read, or None for a literal assignment
    offset: int


@dataclass(frozen=True)
class BranchAst:
    prob: ProbValue
    resets: tuple[str, ...]
    target: str
    assigns: tuple[Assign, ...] = ()


@dataclass(frozen=True)
class RateAst:
    structure: str
    value: int


@dataclass(frozen=True)
class EdgeAst:
    action: str
    guard: tuple[GuardAtom, ...]
    prices: tuple[RateAst, ...]
    branches: tuple[BranchAst, ...]


@dataclass(frozen=True)
class LocationAst:
    name: str
    invariant: tuple[GuardAtom, ...]
    rates: tuple[RateAst, ...]
    edges: tuple[EdgeAst, ...]


@dataclass(frozen=True)
class VarAst:
    name: str
    low: int
    high: int
    init: int


@dataclass(frozen=True)
class AutomatonAst:
    name: str
    init: str
    variables: tuple[VarAst, ...]
    locations: tuple[LocationAst, ...]


@dataclass(frozen=True)
class OwnerRule:
    pattern: str
    player: str


@dataclass(frozen=True)
class LabelClause:
    patterns: tuple[str, ...]
    var_atoms: tuple[GuardAtom, ...]


@dataclass(frozen=True)
class LabelAst:
    name: str
    clauses: tuple[LabelClause, ...]


@dataclass(frozen=True)
class PropertyAst:
    query: str  # Pmax | Pmin | Emax | Emin
    target: str
    bound: int | None
    price: str | None
    coalition: tuple[str, ...]


@dataclass(frozen=True)
class ModelSource:
    constants: tuple[tuple[str, Fraction], ...]
    players: tuple[str, ...]
    clocks: tuple[str, ...]
    automata: tuple[AutomatonAst, ...]
    compose: tuple[str, ...]
    owners: tuple[OwnerRule, ...]
    labels: tuple[LabelAst, ...]
    props: tuple[PropertyAst, ...]

    def automaton(self, name: str) -> AutomatonAst:
        for auto in self.automata:
            if auto.name == name:
                return auto
        raise ParseError(f"unknown automaton {name!r}", 0, 0, "check the compose line")


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = list(lex(text))
        self.pos = 0
        self.constants: dict[str, Fraction] = {}
        self.players: list[str] = []
        self.clocks: list[str] = []
        self.automata: list[AutomatonAst] = []
        self.compose: list[str] = []
        self.owners: list[OwnerRule] = []
        self.labels: list[LabelAst] = []
        self.props: list[PropertyAst] = []

    # token plumbing

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, hint: str = "", token: Token | None = None) -> ParseError:
        tok = token or self.current
        return ParseError(message, tok.line, tok.column, hint)

    def take(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, text: str) -> Token | None:
        if self.current.kind in ("punct", "ident") and self.current.text == text:
            return self.take()
        return None

    def expect(self, text: str, hint: str = "") -> Token:
        token = self.accept(text)
        if token is None:
            raise self.error(f"expected {text!r}, found {self.current.text or 'end of file'!r}", hint)
        return token

    def plain_name(self, what: str) -> str:
        token = self.current
        if token.kind != "ident" or not _NAME.match(token.text):
            raise self.error(f"expected {what} name", "names are letters, digits and _")
        if token.text in KEYWORDS:
            raise self.error(f"{token.text!r} is a keyword", f"rename the {what}")
        self.take()
        return token.text

    def integer(self, what: str = "integer") -> int:
        token = self.current
        if token.kind != "int":
            raise self.error(f"expected {what}", "a non-negative integer literal")
        self.take()
        return int(token.text)

    def rational(self) -> Fraction:
        token = self.current
        if token.kind == "decimal":
            self.take()
            return Fraction(token.text)
        if token.kind == "int":
            self.take()
            numerator = int(token.text)
            if self.accept("/"):
                denominator = self.integer("denominator")
                if denominator == 0:
                    raise self.error("zero denominator", token=token)
                return Fraction(numerator, denominator)
            return Fraction(numerator)
        raise self.error("expected a rational number", "write 1, 0.5 or 1/2")

    # grammar rules

    def model(self) -> ModelSource:
        while self.current.kind != "eof":
            keyword = self.current.text
            if keyword == "const":
                self.const_def()
            elif keyword == "player":
                self.name_list(self.players, "player")
            elif keyword == "clock":
                self.name_list(self.clocks, "clock")
            elif keyword == "automaton":
                self.automaton_def()
            elif keyword == "compose":
                self.compose_def()
            elif keyword == "owner":
                self.owner_block()
            elif keyword == "label":
                self.label_def()
            elif keyword == "prop":
                self.prop_def()
            else:
                raise self.error(
                    f"unexpected {keyword!r} at top level",
                    "expected const, player, clock, automaton, compose, owner, label or prop",
                )
        if not self.automata:
            raise ParseError("model declares no automaton", 1, 1, "add an automaton block")
        if not self.compose:
            self.compose = [auto.name for auto in self.automata]
        return ModelSource(
            constants=tuple(self.constants.items()),
            players=tuple(self.players),
            clocks=tuple(self.clocks),
            automata=tuple(self.automata),
            compose=tuple(self.compose),
            owners=tuple(self.owners),
            labels=tuple(self.labels),
            props=tuple(self.props),
        )

    def const_def(self):
        self.expect("const")
        name = self.plain_name("constant")
        if name in self.constants:
            raise self.error(f"constant {name!r} redefined")
        self.expect("=")
        self.constants[name] = self.rational()
        self.expect(";")

    def name_list(self, into: list[str], what: str):
        self.take()  # keyword
        while True:
            name = self.plain_name(what)
            if name in into:
                raise self.error(f"{what} {name!r} redeclared")
            into.append(name)
            if not self.accept(","):
                break
        self.expect(";")

    def automaton_def(self):
        self.expect("automaton")
        name = self.plain_name("automaton")
        self.expect("{")
        self.expect("init", "every automaton starts with 'init <location>;'")
        init = self.plain_name("location")
        self.expect(";")
        variables: list[VarAst] = []
        while self.current.text == "var":
            variables.append(self.var_decl(variables))
        locations: list[LocationAst] = []
        while self.current.text == "location":
            locations.append(self.location_def([v.name for v in variables]))
        self.expect("}")
        known = {loc.name for loc in locations}
        if init not in known:
            raise self.error(f"init location {init!r} is not defined in automaton {name!r}")
        for loc in locations:
            for edge in loc.edges:
                for branch in edge.branches:
                    if branch.target not in known:
                        raise self.error(
                            f"edge target {branch.target!r} is not a location of {name!r}",
                            "targets must belong to the same automaton",
                        )
        self.automata.append(AutomatonAst(name, init, tuple(variables), tuple(locations)))

    def var_decl(self, seen: list[VarAst]) -> VarAst:
        self.expect("var")
        name = self.plain_name("variable")
        if any(v.name == name for v in seen) or name in self.clocks:
            raise self.error(f"name {name!r} already in use")
        self.expect(":")
        self.expect("[")
        low = self.integer("lower bound")
        self.expect("..")
        high = self.integer("upper bound")
        if high < low:
            raise self.error("empty variable range")
        self.expect("]")
        init = low
        if self.accept("init"):
            init = self.integer("initial value")
            if not low <= init <= high:
                raise self.error("initial value outside the declared range")
        self.expect(";")
        return VarAst(name, low, high, init)

    def location_def(self, variables: list[str]) -> LocationAst:
        self.expect("location")
        name = self.plain_name("location")
        self.expect("{")
        self.expect("inv", "every location needs 'inv <constraint>;'")
        invariant = self.constraint(variables, invariant=True)
        self.expect(";")
        rates: list[RateAst] = []
        while self.current.text == "rate":
            self.take()
            structure = "time"
            if self.current.kind == "ident":
                structure = self.plain_name("price structure")
            value = self.integer("rate")
            rates.append(RateAst(structure, value))
            self.expect(";")
        edges: list[EdgeAst] = []
        while self.current.text == "[":
            edges.append(self.edge_def(variables))
        self.expect("}")
        return LocationAst(name, invariant, tuple(rates), tuple(edges))

    def edge_def(self, variables: list[str]) -> EdgeAst:
        self.expect("[")
        action = self.plain_name("action")
        self.expect("]")
        guard = self.constraint(variables, invariant=False)
        prices: list[RateAst] = []
        while self.current.text == "price":
            self.take()
            structure = "time"
            if self.current.kind == "ident":
                structure = self.plain_name("price structure")
            prices.append(RateAst(structure, self.integer("price")))
        self.expect("->")
        branches = [self.branch_def(variables)]
        while self.accept("+"):
            branches.append(self.branch_def(variables))
        self.expect(";")
        mass = sum(self.resolve_prob(branch.prob) for branch in branches)
        if mass != 1:
            raise self.error(
                f"probabilities sum to {mass}",
                "branch probabilities must sum to exactly 1",
            )
        return EdgeAst(action, guard, tuple(prices), tuple(branches))

    def resolve_prob(self, value: ProbValue) -> Fraction:
        try:
            return resolve_prob(value, self.constants)
        except KeyError as exc:
            raise self.error(f"unknown constant {exc.args[0]!r}", "declare it with const before use") from None

    def branch_def(self, variables: list[str]) -> BranchAst:
        if self.current.text == "1" and self.tokens[self.pos + 1].text == "-":
            self.pos += 2
            prob: ProbValue = "1-" + self.plain_name("probability constant")
            self.resolve_prob(prob)
        elif self.current.kind in ("int", "decimal"):
            prob = self.rational()
        else:
            prob = self.plain_name("probability constant")
            self.resolve_prob(prob)
        self.expect(":")
        self.expect("{", "list the clocks to reset, e.g. {x} or {}")
        resets: list[str] = []
        if self.current.text != "}":
            while True:
                clock = self.plain_name("clock")
                if clock not in self.clocks:
                    raise self.error(f"unknown clock {clock!r}", "declare it with 'clock ...;'")
                resets.append(clock)
                if not self.accept(","):
                    break
        self.expect("}")
        self.expect("&")
        target = self.plain_name("target location")
        assigns: list[Assign] = []
        if self.accept("["):
            while True:
                assigns.append(self.assign_def(variables))
                if not self.accept(","):
                    break
            self.expect("]")
        return BranchAst(prob, tuple(resets), target, tuple(assigns))

    def assign_def(self, variables: list[str]) -> Assign:
        name = self.plain_name("variable")
        if name not in variables:
            raise self.error(f"unknown variable {name!r}", "declare it with 'var ...;'")
        self.expect("'")
        self.expect("=")
        if self.current.kind == "int":
            return Assign(name, None, self.integer())
        base = self.plain_name("variable")
        if base not in variables:
            raise self.error(f"unknown variable {base!r}")
        offset = 0
        if self.accept("+"):
            offset = self.integer()
        elif self.accept("-"):
            offset = -self.integer()
        return Assign(name, base, offset)

    def constraint(self, variables: list[str], invariant: bool) -> tuple[GuardAtom, ...]:
        if self.accept("true"):
            return ()
        atoms = [self.atom(variables, invariant)]
        while self.accept("&"):
            atoms.append(self.atom(variables, invariant))
        return tuple(atoms)

    def atom(self, variables: list[str], invariant: bool) -> GuardAtom:
        subject = self.plain_name("clock or variable")
        is_clock = subject in self.clocks
        if not is_clock and subject not in variables:
            raise self.error(
                f"unknown clock or variable {subject!r}",
                "declare clocks at the top level and variables in the automaton",
            )
        token = self.current
        if token.text in ("<", ">"):
            raise self.error(
                "strict inequalities not allowed (closed constraints)",
                f"use {token.text}= instead",
            )
        if token.text == "=" and is_clock:
            raise self.error("clocks admit only <= and >= comparisons",
                             "use x>=c & x<=c to pin a clock value")
        if token.text not in ("<=", ">=", "="):
            raise self.error("expected a comparison (<=, >= or =)")
        if invariant and not is_clock:
            raise self.error("invariants may only constrain clocks")
        self.take()
        value_token = self.current
        if value_token.kind == "int":
            value: IntValue = self.integer()
        elif value_token.kind == "ident" and _NAME.match(value_token.text):
            name = value_token.text
            if name in self.clocks or name in variables:
                raise self.error(
                    "diagonal constraints not allowed",
                    "compare clocks and variables against constants only",
                )
            if name not in self.constants:
                raise self.error(f"unknown constant {name!r}")
            constant = self.constants[name]
            if constant.denominator != 1 or constant < 0:
                raise self.error(f"constant {name!r} is not a natural number")
            self.take()
            value = name
        else:
            raise self.error("expected a natural constant")
        return GuardAtom(subject, token.text, value)

    def compose_def(self):
        self.expect("compose")
        if self.compose:
            raise self.error("only one compose line is allowed")
        while True:
            name = self.plain_name("automaton")
            if not any(a.name == name for a in self.automata):
                raise self.error(f"unknown automaton {name!r}", "declare automata before compose")
            self.compose.append(name)
            if not self.accept("||"):
                break
        self.expect(";")

    def pattern(self) -> str:
        token = self.current
        if token.kind != "ident":
            raise self.error("expected a location pattern", "e.g. done.* or *")
        self.take()
        return token.text

    def owner_block(self):
        self.expect("owner")
        self.expect("{")
        while self.current.text != "}":
            pattern = self.pattern()
            self.expect("->")
            player = self.plain_name("player")
            if player not in self.players:
                raise self.error(f"unknown player {player!r}")
            self.owners.append(OwnerRule(pattern, player))
            self.expect(";")
        self.expect("}")

    def label_def(self):
        self.expect("label")
        name = self.plain_name("label")
        if any(l.name == name for l in self.labels):
            raise self.error(f"label {name!r} redefined")
        self.expect("=")
        clauses = [self.label_clause()]
        while self.accept("|"):
            clauses.append(self.label_clause())
        self.expect(";")
        self.labels.append(LabelAst(name, tuple(clauses)))

    def label_clause(self) -> LabelClause:
        patterns: list[str] = []
        var_atoms: list[GuardAtom] = []
        while True:
            token = self.current
            if token.kind != "ident":
                raise self.error("expected a location pattern or variable atom")
            if _NAME.match(token.text) and self.tokens[self.pos + 1].text == "=":
                self.take()
                self.expect("=")
                var_atoms.append(GuardAtom(token.text, "=", self.integer()))
            else:
                patterns.append(self.pattern())
            if not self.accept("&"):
                break
        return LabelClause(tuple(patterns), tuple(var_atoms))

    def prop_def(self):
        self.expect("prop")
        token = self.current
        if token.text not in QUERIES:
            raise self.error("expected Pmax, Pmin, Emax or Emin")
        self.take()
        query = token.text
        self.expect("[")
        self.expect("F", "only reachability targets are supported: [ F <label> ]")
        target = self.plain_name("label")
        self.expect("]")
        bound = None
        if self.accept("<="):
            bound = self.integer("time bound")
        price = None
        if self.accept("price"):
            price = self.plain_name("price structure")
        self.expect("coalition")
        self.expect("{")
        coalition: list[str] = []
        if self.current.text != "}":
            while True:
                player = self.plain_name("player")
                if player not in self.players:
                    raise self.error(f"unknown player {player!r}")
                coalition.append(player)
                if not self.accept(","):
                    break
        self.expect("}")
        self.expect(";")
        self.props.append(PropertyAst(query, target, bound, price, tuple(coalition)))


@_gc_paused
def parse(text: str) -> ModelSource:
    """Parse model text into its AST, rejecting local semantic errors."""
    return _Parser(text).model()


def parse_property(text: str, source: ModelSource) -> PropertyAst:
    """Parse a single property written in the property mini-language."""
    parser = _Parser(f"prop {text} ;")
    # properties may reference players and labels of an existing model
    parser.players = list(source.players)
    parser.prop_def()
    return parser.props[0]


# -------------------------------------------------------- rationals as text

def _print_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
