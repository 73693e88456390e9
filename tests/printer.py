"""Canonical text for a model AST: `print_model`, whose output parses back
to an equal AST.

The round-trip tests use it to check the parser; no stage of the pipeline
prints a model, so it lives with the tests. Rationals print as the DSL
writes them, through the parser module's `_print_rational`.
"""

from tptg.dsl import BranchAst, GuardAtom, ModelSource, _print_rational


def _print_atoms(atoms: tuple[GuardAtom, ...]) -> str:
    if not atoms:
        return "true"
    return " & ".join(f"{a.subject} {a.op} {a.value}" for a in atoms)


def _print_branch(branch: BranchAst) -> str:
    prob = branch.prob if isinstance(branch.prob, str) else _print_rational(branch.prob)
    resets = "{" + ", ".join(branch.resets) + "}"
    text = f"{prob}: {resets} & {branch.target}"
    if branch.assigns:
        parts = []
        for a in branch.assigns:
            if a.base is None:
                parts.append(f"{a.variable}' = {a.offset}")
            elif a.offset == 0:
                parts.append(f"{a.variable}' = {a.base}")
            elif a.offset > 0:
                parts.append(f"{a.variable}' = {a.base} + {a.offset}")
            else:
                parts.append(f"{a.variable}' = {a.base} - {-a.offset}")
        text += "[" + ", ".join(parts) + "]"
    return text


def print_model(source: ModelSource) -> str:
    """Canonical text for a model AST; parsing it back yields an equal AST."""
    out: list[str] = []
    for name, value in source.constants:
        out.append(f"const {name} = {_print_rational(value)};")
    if source.constants:
        out.append("")
    if source.players:
        out.append("player " + ", ".join(source.players) + ";")
    if source.clocks:
        out.append("clock " + ", ".join(source.clocks) + ";")
    for auto in source.automata:
        out.append("")
        out.append(f"automaton {auto.name} {{")
        out.append(f"  init {auto.init};")
        for v in auto.variables:
            out.append(f"  var {v.name}: [{v.low}..{v.high}] init {v.init};")
        for loc in auto.locations:
            out.append(f"  location {loc.name} {{")
            out.append(f"    inv {_print_atoms(loc.invariant)};")
            for rate in loc.rates:
                out.append(f"    rate {rate.structure} {rate.value};")
            for edge in loc.edges:
                prices = "".join(
                    f" price {p.structure} {p.value}" for p in edge.prices
                )
                branches = " + ".join(_print_branch(b) for b in edge.branches)
                out.append(
                    f"    [{edge.action}] {_print_atoms(edge.guard)}{prices} -> {branches};"
                )
            out.append("  }")
        out.append("}")
    out.append("")
    out.append("compose " + " || ".join(source.compose) + ";")
    if source.owners:
        out.append("owner {")
        for rule in source.owners:
            out.append(f"  {rule.pattern} -> {rule.player};")
        out.append("}")
    for label in source.labels:
        clause_texts = []
        for clause in label.clauses:
            parts = list(clause.patterns) + [
                f"{a.subject}={a.value}" for a in clause.var_atoms
            ]
            clause_texts.append(" & ".join(parts))
        out.append(f"label {label.name} = " + " | ".join(clause_texts) + ";")
    for prop in source.props:
        text = f"prop {prop.query} [ F {prop.target} ]"
        if prop.bound is not None:
            text += f" <= {prop.bound}"
        if prop.price is not None:
            text += f" price {prop.price}"
        text += " coalition {" + ", ".join(prop.coalition) + "};"
        out.append(text)
    return "\n".join(out) + "\n"
