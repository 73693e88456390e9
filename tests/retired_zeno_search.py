"""Reference time-convergence check: a hand-rolled depth-first cycle search.

:func:`tptg.model.validate_assumptions` used to look for a location cycle
that resets no clock and has no positive lower-bound guard with its own
depth-first search. It now asks the shared Tarjan search
(:func:`tptg.game.strongly_connected`) for a cyclic component instead. The
old search is kept here, unchanged in behaviour, as a differential oracle.
"""

from tptg.clocks import GE, TRUE
from tptg.model import Diagnostic, Tptg


def zeno_warning(model: Tptg) -> list[Diagnostic]:
    successors: dict[str, set[str]] = {loc: set() for loc in model.locations}
    for (loc, act), dist in model.transitions.items():
        guard = model.enabling.get((loc, act), TRUE)
        delayed = any(a.op == GE and a.bound >= 1 for a in guard.atoms)
        if delayed:
            continue
        for branch in dist:
            if not branch.resets:
                successors[loc].add(branch.target)

    visiting: dict[str, int] = {}  # 0 = on stack, 1 = done

    def has_cycle(start: str) -> bool:
        stack = [(start, iter(successors[start]))]
        visiting[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if visiting.get(nxt) == 0:
                    return True
                if nxt not in visiting:
                    visiting[nxt] = 0
                    stack.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
            if not advanced:
                visiting[node] = 1
                stack.pop()
        return False

    for loc in model.locations:
        if loc not in visiting and has_cycle(loc):
            return [
                Diagnostic(
                    "warning",
                    "model",
                    "a structural cycle resets no clock and has no positive "
                    "lower-bound guard; time-convergent strategies may exist",
                )
            ]
    return []
