"""Solves the pipeline does not run, kept with the tests as references.

`bounded_expected_price` iterates the expected price over exactly n backup
steps: a horizon that counts steps, not time, which no DSL property asks
for. Its values converge to the unbounded solve's from below, which the
tests check. `check_determinacy` brackets the value at the initial state by
solving the game, then re-solving twice with each side pinned to its
strategy in a view that only drops moves.
"""

from typing import Iterable, Union

from tptg.errors import ModelError
from tptg.game import Tsg
from tptg.solver import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    Objective,
    _backups,
    _check_two_players,
    _opt_for,
    _target_set,
    solve,
)


def bounded_expected_price(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    n: int,
    direction: str = "maxmin",
) -> list[float]:
    """Optimal expected price over exactly `n` backup steps (no tolerance)."""
    _check_two_players(game)
    if n < 0:
        raise ModelError("horizon must be non-negative")
    target_set = _target_set(game, targets)
    opt = _opt_for(game, direction)
    values = [0.0] * len(game.states)
    for _ in range(n):
        step = list(values)
        for s, moves in enumerate(game.moves):
            if s in target_set or not moves:
                continue
            step[s] = opt[s](_backups(moves, values, True))
        values = step
    return values


def check_determinacy(
    game: Tsg,
    targets: Union[str, Iterable[int]],
    kind: str = "prob-reach",
    direction: str = "maxmin",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, float]:
    """Certified bracket around the game value at the initial state.

    Solves the game, extracts an optimal profile pair, then re-solves twice
    with one side pinned to its strategy while the other optimizes freely.
    The pinned-coalition value is what that side can guarantee, so the pair
    brackets both optimization orders; a gap below ``2 * tol`` certifies
    determinacy and strategy optimality at this accuracy.
    """
    _check_two_players(game)
    target_set = _target_set(game, targets)
    if kind not in ("prob-reach", "exp-price"):
        raise ModelError(f"determinacy check supports prob-reach and exp-price, not {kind!r}")
    objective = Objective(kind, direction, target_set)
    result = solve(game, objective, tol, max_iters)
    if not result.converged:
        raise ModelError("determinacy check needs a converged solve")
    # each side pinned to its strategy in a view that only drops moves, so
    # shares the cached SCCs
    strategy = result.strategy
    guaranteed1, guaranteed2 = (
        solve(
            game.derive(moves=tuple(
                tuple(m for m in ms if m.label == strategy[s]) if s in strategy and game.owner[s] == player else ms
                for s, ms in enumerate(game.moves)
            )),
            objective, tol, max_iters,
        ).initial_value
        for player in game.players
    )
    # With player 1 pinned, the free opponent drives the value to player 1's
    # guarantee (the pessimistic optimization order); pinning player 2 gives
    # the optimistic one. Return (pessimistic, optimistic) for player 1.
    if direction == "maxmin":
        return guaranteed1, guaranteed2
    return guaranteed2, guaranteed1
