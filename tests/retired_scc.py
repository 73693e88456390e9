"""Reference SCC search: the dict-based iterative Tarjan.

:func:`tptg.game.strongly_connected` used to number, mark and stack the
nodes of any hashable node set in dicts and a set. It now runs over lists
indexed by the states 0..n-1, and a caller with another node set numbers
it first. The old search is kept here, unchanged in behaviour, as a
differential oracle, and for the retired solve path's search over the
active states.
"""

from typing import Callable, Iterable


def strongly_connected(successors: Callable, nodes: Iterable):
    """Strongly connected components of the graph on `nodes`, successors first.

    `successors(s)` gives the targets of the edges out of s; edges leaving
    `nodes` are ignored. Iterative Tarjan (SIAM J. Comput. 1972): roots in
    ascending order, successors in the order given. Yields (nodes in
    ascending order, whether the SCC has a cycle: two or more nodes, or a
    self-loop).
    """
    number: dict = dict.fromkeys(nodes, -1)
    low: dict = {}
    stack: list = []
    on_stack: set = set()

    def visit(s):
        number[s] = low[s] = len(low)
        stack.append(s)
        on_stack.add(s)
        out = [t for t in successors(s) if t in number]
        work.append((s, out, iter(out)))

    for root in sorted(number):
        if number[root] >= 0:
            continue
        work = []
        visit(root)
        while work:
            s, out, pending = work[-1]
            for t in pending:
                if number[t] < 0:
                    visit(t)
                    break
                if t in on_stack and number[t] < low[s]:
                    low[s] = number[t]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[s] < low[parent]:
                        low[parent] = low[s]
                if low[s] == number[s]:
                    component = [stack.pop()]
                    while component[-1] != s:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1:
                        yield sorted(component), True
                    else:
                        yield component, s in out
