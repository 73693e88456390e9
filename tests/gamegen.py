"""Test helpers: random explicit games, random timed models, and an
independent brute-force enumerator of the integer-time state space.

The enumerator deliberately re-derives everything from the model definition
(its own ceilings, saturating addition, and per-unit intermediate invariant
checks) so it shares no shortcuts with the production construction.
"""

import random
from fractions import Fraction

from tptg import Atom, ClockConstraint, Move, PriceStructure, ProbBranch, StateLabel, Tptg, make_game


def random_game(
    rng: random.Random,
    max_states: int = 10,
    min_states: int = 2,
    max_actions: int = 3,
    max_price: int = 5,
    min_price: int = 0,
    goal_share: float = 0.25,
    goal_escape: Fraction | None = None,
    acyclic: bool = False,
):
    """Random two-player explicit game with a nonempty `goal` label.

    With `goal_escape` set, every move routes at least that much probability
    mass straight to a goal state, which keeps value iteration strongly
    contracting and all states almost-surely reaching. `min_price=1` keeps
    expected-price objectives well-posed (no zero-price stalling).
    With `acyclic` set, branches go only to goal states or to states later
    in a random ranking, so the game has no cycle.
    """
    n = rng.randint(min_states, max_states)
    goals = {s for s in range(n) if rng.random() < goal_share}
    if not goals:
        goals = {rng.randrange(n)}
    if len(goals) == n:
        goals.discard(0)
    owner = [rng.choice((1, 2)) for _ in range(n)]
    rank = rng.sample(range(n), n) if acyclic else None
    moves = []
    for s in range(n):
        if s in goals:
            moves.append([])  # absorbing goal
            continue
        state_moves = []
        for a in range(rng.randint(1, max_actions)):
            if rank is None:
                support = rng.sample(range(n), rng.randint(1, min(3, n)))
            else:
                pool = [t for t in range(n) if t in goals or rank[t] > rank[s]]
                support = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            weights = [rng.randint(1, 4) for _ in support]
            total = sum(weights)
            branches = [(t, w / total) for t, w in zip(support, weights)]
            if goal_escape is not None:
                goal = rng.choice(sorted(goals))
                keep = 1 - goal_escape
                branches = [(t, float(keep) * p) for t, p in branches]
                branches.append((goal, float(goal_escape)))
            state_moves.append(
                Move(
                    action=f"a{a}",
                    branches=tuple(branches),
                    price=float(rng.randint(min_price, max_price)),
                )
            )
        moves.append(state_moves)
    initial = rng.choice([s for s in range(n) if s not in goals])
    return make_game(moves, owner, labels={"goal": goals}, initial=initial, players=(1, 2))


def random_tptg(rng: random.Random) -> Tptg:
    """Random small timed game satisfying the digital-semantics assumptions.

    Every invariant is the same box (each clock at most C), so branch
    targets are always valid and delays stay bounded.
    """
    cap = rng.randint(2, 3)
    clocks = tuple(f"c{i}" for i in range(rng.randint(1, 2)))
    locations = tuple(f"l{i}" for i in range(rng.randint(2, 4)))
    box = ClockConstraint(tuple(Atom(x, "<=", cap) for x in clocks))
    actions = ("a", "b")
    enabling = {}
    transitions = {}
    action_prices = {}
    for loc in locations:
        for act in rng.sample(actions, rng.randint(1, 2)):
            atoms = []
            if rng.random() < 0.7:
                x = rng.choice(clocks)
                op = rng.choice(("<=", ">="))
                atoms.append(Atom(x, op, rng.randint(0, cap)))
            enabling[(loc, act)] = ClockConstraint(tuple(atoms))
            n_branches = rng.randint(1, 2)
            if n_branches == 1:
                probs = [Fraction(1)]
            else:
                p = Fraction(rng.randint(1, 3), 4)
                probs = [p, 1 - p]
            transitions[(loc, act)] = tuple(
                ProbBranch(
                    p,
                    frozenset(x for x in clocks if rng.random() < 0.5),
                    rng.choice(locations),
                )
                for p in probs
            )
            # strictly positive action prices keep expected-price objectives
            # well-posed (no zero-price stalling anywhere)
            action_prices[(loc, act)] = rng.randint(1, 3)
    players = ("one", "two")
    owner = {loc: rng.choice(players) for loc in locations}
    # make sure both players own something
    owner[locations[0]] = "one"
    owner[locations[-1]] = "two"
    goal = frozenset(rng.sample(locations, rng.randint(1, len(locations))))
    return Tptg(
        players=players,
        locations=locations,
        initial=locations[0],
        clocks=clocks,
        actions=actions,
        owner=owner,
        invariants={loc: box for loc in locations},
        enabling=enabling,
        transitions=transitions,
        prices={"run": PriceStructure(rates={loc: rng.randint(0, 2) for loc in locations},
                                      action_prices=action_prices)},
        labels={"goal": StateLabel(goal)},
    )


def naive_digital_reach(model: Tptg) -> set[tuple[str, tuple[int, ...]]]:
    """Independent enumeration of the reachable integer-time state space.

    Re-derives the clock ceilings, saturates by hand, and checks the
    invariant at every intermediate unit of each delay (no endpoint
    shortcut).
    """
    ceilings = {x: 0 for x in model.clocks}
    for constraint in list(model.invariants.values()) + list(model.enabling.values()):
        for atom in constraint.atoms:
            ceilings[atom.clock] = max(ceilings[atom.clock], atom.bound)
    for clock, cap in model.clock_caps.items():
        ceilings[clock] = max(ceilings[clock], cap)
    order = list(model.clocks)
    max_delay = 1 + max(ceilings.values(), default=0)

    def holds(values: dict, constraint) -> bool:
        for atom in constraint.atoms:
            value = values[atom.clock]
            if atom.op == "<=" and not value <= atom.bound:
                return False
            if atom.op == ">=" and not value >= atom.bound:
                return False
        return True

    def plus(values: dict, t: int) -> dict:
        return {x: min(v + t, ceilings[x] + 1) for x, v in values.items()}

    by_location: dict[str, list] = {}
    for (loc, act), dist in model.transitions.items():
        by_location.setdefault(loc, []).append((act, model.enabling[(loc, act)], dist))

    start = (model.initial, tuple(0 for _ in order))
    seen = {start}
    stack = [start]
    while stack:
        loc, packed = stack.pop()
        values = dict(zip(order, packed))
        for t in range(max_delay + 1):
            if not all(holds(plus(values, u), model.invariants[loc]) for u in range(t + 1)):
                break
            waited = plus(values, t)
            for act, guard, dist in by_location.get(loc, []):
                if not holds(waited, guard):
                    continue
                for branch in dist:
                    landed = {
                        x: 0 if x in branch.resets else v for x, v in waited.items()
                    }
                    if not holds(landed, model.invariants[branch.target]):
                        continue
                    successor = (branch.target, tuple(landed[x] for x in order))
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
    return seen
