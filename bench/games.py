"""Seeded random explicit games whose optimal values are known by construction.

Every game here is *stopping*: each move of each non-terminal state puts
positive probability on a step that leads towards a terminal state, so every
strategy profile reaches a terminal almost surely. The Bellman equation of a
stopping game has exactly one fixed point (Condon, "The complexity of
stochastic games", 1992), so any vector that satisfies it is the game value.

The generator therefore plants the values first. It builds each state's
optimal move so that the one-step backup equals the planted value, and makes
every other move worse for the state's owner by a positive margin. The
planted vector is the reference the benchmark checks the solver against; it
is never computed by the solver under test.
"""

import random

from tptg import Move, Objective, make_game

# Probabilities are floats: normalising them costs about one ulp per branch,
# so a backup of the planted values matches the planted value to ~1e-15.


def _move(label, weights, price=0.0):
    merged = {}
    for target, prob in weights:
        if prob > 0:
            merged[target] = merged.get(target, 0.0) + prob
    total = sum(merged.values())
    branches = tuple((t, p / total) for t, p in merged.items())
    return Move(action=label, branches=branches, price=price)


def _backup(weights, values):
    total = sum(p for _, p in weights)
    return sum(p * values[t] for t, p in weights) / total


def ring_pmax(rng: random.Random, n: int, arc: int):
    """Max-reachability game on a ring with goal and trap states.

    Every `arc`-th ring position is terminal, alternately a goal (value 1)
    and an absorbing trap (value 0); the states between two terminals carry
    values planted on the straight line between 1 and 0. Each optimal move
    is a near-fair step to the two ring neighbours, which mixes slowly, with
    a small leak to a goal or trap that makes its backup exact. The step's
    bias at ring position p is a fixed golden-ratio sequence in p rather
    than a seeded draw: it sets the slowest mode of the walk, and so the
    sweep count, which then varies by a few percent between seeds instead
    of by a fifth. Every move keeps mass on the left neighbour, so repeated
    left steps reach a terminal and the game is stopping. State indices are
    a seeded permutation of ring positions, so the solver's sweep order does
    not follow the ring.

    Returns ``(game, objective, values)`` with the planted value per state.
    """
    if n % (2 * arc):
        raise ValueError("ring size must be a multiple of twice the arc")
    index = list(range(n))
    rng.shuffle(index)
    goals = [index[p] for p in range(0, n, 2 * arc)]
    traps = [index[p] for p in range(arc, n, 2 * arc)]
    values = [0.0] * n
    for p in range(n):
        k, d = divmod(p, arc)
        # arcs leaving a goal fall from 1 to 0, arcs leaving a trap rise
        values[index[p]] = 1 - d / arc if k % 2 == 0 else d / arc
    owner = [rng.choice((1, 2)) for _ in range(n)]
    moves = [[] for _ in range(n)]
    for t in traps:
        moves[t] = [_move("stay", [(t, 1.0)])]
    terminal = set(goals) | set(traps)
    for p in range(n):
        s = index[p]
        if s in terminal:
            continue
        v = values[s]
        left, right = index[p - 1], index[(p + 1) % n]
        a = 0.35 + 0.3 * ((p * 0.6180339887) % 1)
        step = [(left, a), (right, 1 - a)]
        options = [_leak(step, values, v, rng.choice(goals), rng.choice(traps))]
        for _ in range(rng.randint(1, 2)):
            chord = index[rng.randrange(n)]
            other = [(left, rng.uniform(0.2, 0.6)), (right, rng.uniform(0.2, 0.6)),
                     (chord, rng.uniform(0.0, 0.3))]
            base = _backup(other, values)
            if owner[s] == 1:  # maximizer: strictly below the planted value
                want = min(base, v - rng.uniform(0.01, 0.1) * v)
            else:  # minimizer: strictly above it
                want = max(base, v + rng.uniform(0.01, 0.1) * (1 - v))
            options.append(_leak(other, values, want, rng.choice(goals), rng.choice(traps)))
        rng.shuffle(options)
        moves[s] = [_move(f"a{i}", w) for i, w in enumerate(options)]
    initial = index[arc // 2]
    game = make_game(moves, owner, labels={"goal": goals}, initial=initial, players=(1, 2))
    return game, Objective("prob-reach", "maxmin", "goal"), values


def _leak(weights, values, want, goal, trap):
    """`weights` plus a leak to `goal` or `trap` so the backup equals `want`."""
    total = sum(p for _, p in weights)
    weights = [(t, p / total) for t, p in weights]
    base = _backup(weights, values)
    if base < want:
        g = (want - base) / (1 - base)
        return [(t, (1 - g) * p) for t, p in weights] + [(goal, g)]
    z = 1 - want / base
    return [(t, (1 - z) * p) for t, p in weights] + [(trap, z)]


def expander_emin(rng: random.Random, n: int):
    """Min-expected-price game on a random sparse graph that mixes fast.

    Player 1 minimizes the price paid until the goal, player 2 maximizes
    it. Planted values lie in [100, 102]. Every move sends 5-10% of its mass
    straight to the goal (so the game is stopping) and the rest to three
    random states; its price is set so the backup of the optimal move equals
    the planted value and every other move is 0.5-2 worse for the owner.
    All prices come out at least 1, so no zero-price cycle exists.

    Returns ``(game, objective, values)`` with the planted value per state.
    """
    goal = n
    values = [100 + 2 * rng.random() for _ in range(n)] + [0.0]
    owner = [rng.choice((1, 2)) for _ in range(n)] + [1]
    moves = [[] for _ in range(n + 1)]
    for s in range(n):
        options = []
        for i in range(rng.randint(2, 3)):
            g = rng.uniform(0.05, 0.1)
            picks = rng.sample(range(n), 3)
            weights = [rng.randint(1, 4) for _ in picks]
            total = sum(weights)
            branches = [(t, (1 - g) * w / total) for t, w in zip(picks, weights)] + [(goal, g)]
            margin = 0 if i == 0 else rng.uniform(0.5, 2)
            want = values[s] + (margin if owner[s] == 1 else -margin)
            options.append((branches, want - _backup(branches, values)))
        rng.shuffle(options)
        moves[s] = [_move(f"a{i}", b, price) for i, (b, price) in enumerate(options)]
    initial = rng.randrange(n)
    game = make_game(moves, owner, labels={"goal": [goal]}, initial=initial, players=(1, 2))
    return game, Objective("exp-price", "minmax", "goal"), values
