"""Exact reference solver: enumerate memoryless deterministic profiles.

Every profile pair induces a finite Markov chain that is evaluated exactly
with rational arithmetic (Gaussian elimination for absorption probabilities
and expected absorption prices). The returned value is the best worst-case
over the enumeration. Deliberately independent of the value-iteration
solver so the two can check each other; only usable on small games.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable, Union

from tptg.errors import ModelError
from tptg.game import Tsg

#: refuse enumerations beyond this many profile pairs
MAX_PROFILES = 500_000

Value = Union[Fraction, float]  # float only for math.inf


def _chain_rows(game: Tsg, choice: dict[int, int]) -> list[list[tuple[int, Fraction]]]:
    rows: list[list[tuple[int, Fraction]]] = []
    for s in range(len(game.states)):
        if s in choice:
            move = game.moves[s][choice[s]]
            branches = [(t, Fraction(p)) for t, p in move.branches if p > 0]
            # branch floats approximate a true distribution; renormalize so
            # rows are exactly stochastic (the defect is below 1e-12)
            mass = sum(p for _, p in branches)
            rows.append([(t, p / mass) for t, p in branches])
        else:
            rows.append([])
    return rows


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over the rationals."""
    n = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ModelError("singular linear system in exact chain evaluation")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def chain_reach_probabilities(
    game: Tsg, choice: dict[int, int], targets: frozenset[int]
) -> list[Fraction]:
    """Exact absorption probabilities into `targets` for a fixed profile."""
    n = len(game.states)
    rows = _chain_rows(game, choice)
    # states that can reach the target at all
    can = set(targets)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in can:
                continue
            if any(t in can for t, _ in rows[s]):
                can.add(s)
                changed = True
    unknown = sorted(s for s in can if s not in targets)
    position = {s: i for i, s in enumerate(unknown)}
    if unknown:
        size = len(unknown)
        matrix = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(0)] * size
        for s in unknown:
            i = position[s]
            matrix[i][i] += 1
            for t, p in rows[s]:
                if t in targets:
                    rhs[i] += p
                elif t in position:
                    matrix[i][position[t]] -= p
        solution = _solve_linear(matrix, rhs)
    else:
        solution = []
    probabilities = []
    for s in range(n):
        if s in targets:
            probabilities.append(Fraction(1))
        elif s in position:
            probabilities.append(solution[position[s]])
        else:
            probabilities.append(Fraction(0))
    return probabilities


def chain_expected_prices(
    game: Tsg, choice: dict[int, int], targets: frozenset[int]
) -> list[Value]:
    """Exact expected prices before absorption; infinity where reaching is not a.s."""
    n = len(game.states)
    rows = _chain_rows(game, choice)
    reach = chain_reach_probabilities(game, choice, targets)
    certain = [s for s in range(n) if reach[s] == 1 and s not in targets]
    position = {s: i for i, s in enumerate(certain)}
    if certain:
        size = len(certain)
        matrix = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(0)] * size
        for s in certain:
            i = position[s]
            matrix[i][i] += 1
            move = game.moves[s][choice[s]]
            rhs[i] += Fraction(move.price)
            for t, p in rows[s]:
                if t in position:
                    matrix[i][position[t]] -= p
        solution = _solve_linear(matrix, rhs)
    else:
        solution = []
    prices: list[Value] = []
    for s in range(n):
        if s in targets:
            prices.append(Fraction(0))
        elif s in position:
            prices.append(solution[position[s]])
        else:
            prices.append(math.inf)
    return prices


def _profile_space(game: Tsg, states: list[int]) -> Iterable[dict[int, int]]:
    ranges = [range(len(game.moves[s])) for s in states]
    for combo in itertools.product(*ranges):
        yield dict(zip(states, combo))


def brute_force_solve(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    kind: str = "prob-reach",
    direction: str = "maxmin",
) -> Value:
    """Exact optimal value at the initial state by profile enumeration."""
    if len(game.players) != 2:
        raise ModelError("brute-force oracle needs a two-player game")
    if kind not in ("prob-reach", "exp-price"):
        raise ModelError(f"brute-force oracle supports prob-reach and exp-price, not {kind!r}")
    if isinstance(targets, str):
        target_set = game.label_states(targets)
    else:
        target_set = frozenset(targets)

    states1 = [s for s in range(len(game.states)) if game.owner[s] == game.players[0] and game.moves[s]]
    states2 = [s for s in range(len(game.states)) if game.owner[s] == game.players[1] and game.moves[s]]
    total = 1
    for s in states1 + states2:
        total *= len(game.moves[s])
        if total > MAX_PROFILES:
            raise ModelError(
                f"profile space exceeds {MAX_PROFILES} pairs; the exact oracle "
                f"is for small games only"
            )

    evaluate = chain_reach_probabilities if kind == "prob-reach" else chain_expected_prices
    outer_better = max if direction == "maxmin" else min
    inner_better = min if direction == "maxmin" else max

    outer_value: Value | None = None
    for choice1 in _profile_space(game, states1):
        inner_value: Value | None = None
        for choice2 in _profile_space(game, states2):
            value = evaluate(game, {**choice1, **choice2}, target_set)[game.initial]
            inner_value = value if inner_value is None else inner_better(inner_value, value)
        outer_value = inner_value if outer_value is None else outer_better(outer_value, inner_value)
    if outer_value is None:
        raise ModelError("empty game")
    return outer_value
