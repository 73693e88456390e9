"""Reference label extents: variable atoms read back from location names.

Elaboration used to decide a label's variable atoms by splitting every
product location name on the product separator, ``#``, ``,`` and ``=`` and
reading the folded variable values back. It now attaches one label per atom
to the component that declares the variable and lets composition carry it
(see :func:`tptg.elaborate.unfold_automaton`). The old parse is kept here,
unchanged in behaviour, as a differential oracle for the label extents that
:func:`tptg.elaborate.to_tptg` produces.
"""

from fnmatch import fnmatchcase

from tptg.dsl import LabelAst
from tptg.elaborate import _var_atoms_hold
from tptg.model import JOIN


def variable_assignment(name: str) -> dict[str, int]:
    values: dict[str, int] = {}
    for part in name.split(JOIN):
        if "#" not in part:
            continue
        for item in part.split("#", 1)[1].split(","):
            var, _, value = item.partition("=")
            values[var] = int(value)
    return values


def label_extent(label: LabelAst, locations, constants) -> frozenset[str]:
    extent = set()
    for name in locations:
        values = variable_assignment(name)
        for clause in label.clauses:
            if not all(fnmatchcase(name, pattern) for pattern in clause.patterns):
                continue
            if all(
                atom.subject in values
                and _var_atoms_hold((atom,), values, constants)
                for atom in clause.var_atoms
            ):
                extent.add(name)
                break
    return frozenset(extent)
