"""Reference value iteration: global Gauss-Seidel sweeps in state order.

This is the value kernel the solver used before it solved strongly connected
components one at a time. It is kept here, unchanged in behaviour, as a
differential oracle for :func:`tptg.solver._iterate`: it has the same
signature, so a test can swap it in and solve the same game both ways.
"""

import math

from tptg.errors import ModelError
from tptg.game import Tsg
from tptg.solver import _MONOTONE_SLACK


def global_sweep(
    game: Tsg,
    values: list[float],
    active: list[int],
    opt: list,
    tol: float,
    max_iters: int,
    prices: bool,
) -> tuple[int, float, bool]:
    """Gauss-Seidel sweeps in state order; returns (sweeps, residual, converged)."""
    moves = game.moves
    iterations = 0
    residual = math.inf
    while iterations < max_iters:
        iterations += 1
        residual = 0.0
        for s in active:
            old = values[s]
            if prices:
                new = opt[s](
                    m.price + sum(p * values[t] for t, p in m.branches)
                    for m in moves[s]
                )
            else:
                new = opt[s](
                    sum(p * values[t] for t, p in m.branches) for m in moves[s]
                )
            if new < old - _MONOTONE_SLACK:
                raise ModelError(f"non-monotone sweep at state {s}: {old} -> {new}")
            if new != old:
                diff = new - old
                if diff > residual:
                    residual = diff
                values[s] = new
        if residual < tol:
            return iterations, residual, True
    return iterations, residual, False
