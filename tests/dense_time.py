"""Dense-time paths of a timed model and their integer digitizations.

The digital-clocks result (Kwiatkowska, Norman, Parker & Sproston, FMSD
2006), which the source paper lifts to games, says the integer-time game
keeps the dense-time probabilities and expected prices. The tests check it
on dense runs: a random dense path, rounded by the digitization operator,
must replay as a path of the built game. None of this is a stage of the
pipeline, so it lives here, next to the exact oracle.

Dense-time machinery works in exact rational arithmetic throughout: the
rounding operator's boundary case (a duration landing exactly on the
rounding threshold) must not depend on floating-point luck.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from tptg.errors import ModelError
from tptg.game import Tsg, TsgPath
from tptg.model import Tptg, max_constants
from tptg.semantics import DigitalState

Rational = Union[int, Fraction]


def _as_fraction(value: Rational, what: str) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise ModelError(f"{what} must be an exact rational, got {type(value).__name__}")


def digitize_scalar(t: Rational, epsilon: Rational) -> int:
    """Round a non-negative rational to an adjacent integer.

    Rounds down when `t` lies within `epsilon` above its floor, up
    otherwise; integers are fixed points for every epsilon.
    """
    t = _as_fraction(t, "time value")
    epsilon = _as_fraction(epsilon, "epsilon")
    if t < 0:
        raise ModelError("time value must be non-negative")
    if not 0 <= epsilon <= 1:
        raise ModelError("epsilon must lie in [0, 1]")
    low = math.floor(t)
    return low if t <= low + epsilon else math.ceil(t)


@dataclass
class TimedPath:
    """Dense-time run of a timed model, durations and clocks as exact rationals.

    Built step by step from the initial state; each extension checks the
    move against the dense semantics (invariant kept while waiting, enabling
    at the endpoint, branch in the distribution's support, target invariant
    satisfied on arrival).
    """

    model: Tptg
    locations: list[str] = field(default_factory=list)
    valuations: list[dict[str, Fraction]] = field(default_factory=list)
    steps: list[tuple[Fraction, str, frozenset[str]]] = field(default_factory=list)

    def __post_init__(self):
        if not self.locations:
            self.locations = [self.model.initial]
            self.valuations = [{x: Fraction(0) for x in self.model.clocks}]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last_location(self) -> str:
        return self.locations[-1]

    @property
    def last_valuation(self) -> dict[str, Fraction]:
        return self.valuations[-1]

    def extend(self, duration: Rational, action: str, resets: frozenset[str], target: str) -> "TimedPath":
        duration = _as_fraction(duration, "duration")
        if duration < 0:
            raise ModelError("durations must be non-negative")
        model = self.model
        location = self.last_location
        waited = {x: v + duration for x, v in self.last_valuation.items()}
        invariant = model.invariants[location]
        # closed conjunctive constraints: holding at both endpoints of the
        # delay means holding throughout
        if not (invariant.satisfied_by(self.last_valuation) and invariant.satisfied_by(waited)):
            raise ModelError(f"waiting {duration} in {location!r} violates its invariant")
        if (location, action) not in model.transitions:
            raise ModelError(f"action {action!r} has no edge in {location!r}")
        if not model.enabling[(location, action)].satisfied_by(waited):
            raise ModelError(f"action {action!r} not enabled after waiting {duration}")
        if not any(
            b.resets == resets and b.target == target and b.prob > 0
            for b in model.transitions[(location, action)]
        ):
            raise ModelError(
                f"({sorted(resets)}, {target!r}) is not in the support of "
                f"({location!r}, {action!r})"
            )
        landed = {x: Fraction(0) if x in resets else v for x, v in waited.items()}
        if not model.invariants[target].satisfied_by(landed):
            raise ModelError(f"arrival at {target!r} violates its invariant")
        self.locations.append(target)
        self.valuations.append(landed)
        self.steps.append((duration, action, resets))
        return self


def accumulated_duration(path: TimedPath, n: int) -> Fraction:
    """Total time elapsed before the (n+1)-th state of the path."""
    if not 0 <= n <= len(path):
        raise ModelError(f"prefix length {n} out of range for a path of length {len(path)}")
    return sum((step[0] for step in path.steps[:n]), Fraction(0))


@dataclass(frozen=True)
class DigitalPath:
    """Integer-time path produced by digitizing a dense-time run."""

    locations: tuple[str, ...]
    values: tuple[tuple[int, ...], ...]  # clock values per state, model clock order
    steps: tuple[tuple[int, str], ...]


def digitize_path(path: TimedPath, epsilon: Rational) -> DigitalPath:
    """Round a dense-time path onto the integer-time semantics.

    Cumulative durations are rounded with :func:`digitize_scalar`; each
    digital delay is the difference of consecutive rounded cumulatives, and
    each clock value is reconstructed from the rounded cumulative since the
    clock's last reset, saturated one past its ceiling.
    """
    epsilon = _as_fraction(epsilon, "epsilon")
    model = path.model
    ceilings = max_constants(model)
    cumulative = [accumulated_duration(path, i) for i in range(len(path) + 1)]
    rounded = [digitize_scalar(d, epsilon) for d in cumulative]
    last_reset = {x: 0 for x in model.clocks}
    values: list[tuple[int, ...]] = []
    for i in range(len(path) + 1):
        if i > 0:
            _, _, resets = path.steps[i - 1]
            for x in resets:
                last_reset[x] = i
        values.append(
            tuple(
                min(rounded[i] - rounded[last_reset[x]], ceilings[x] + 1)
                for x in model.clocks
            )
        )
    steps = tuple(
        (rounded[i + 1] - rounded[i], path.steps[i][1]) for i in range(len(path))
    )
    return DigitalPath(tuple(path.locations), tuple(values), steps)


def digital_path_in_game(dpath: DigitalPath, game: Tsg) -> TsgPath:
    """Replay a digital path inside a built game; raises if any step is invalid."""
    index = {s: i for i, s in enumerate(game.states) if isinstance(s, DigitalState)}
    try:
        start = index[(dpath.locations[0], dpath.values[0])]
    except KeyError:
        raise ModelError(f"digital state ({dpath.locations[0]}, {dpath.values[0]}) not in game")
    if start != game.initial:
        raise ModelError("digital path does not start in the initial state")
    replay = TsgPath(game)
    for i, (t, action) in enumerate(dpath.steps):
        key = (dpath.locations[i + 1], dpath.values[i + 1])
        if key not in index:
            raise ModelError(f"digital state {key} not in game")
        replay.extend(f"({t},{action})", index[key])
    return replay


def random_timed_path(
    model: Tptg,
    rng: random.Random,
    max_steps: int,
    denominator: int = 16,
) -> TimedPath:
    """Random dense-time run: uniform over moves, durations uniform on a
    rational grid over the feasible delay interval."""
    path = TimedPath(model)
    for _ in range(max_steps):
        location = path.last_location
        valuation = path.last_valuation
        invariant = model.invariants[location]
        options = []
        for (loc, action), guard in sorted(model.enabling.items()):
            if loc != location:
                continue
            lo = Fraction(0)
            hi: Fraction | None = None
            for atom in invariant.atoms + guard.atoms:
                slack = Fraction(atom.bound) - valuation[atom.clock]
                if atom.op == "<=":
                    hi = slack if hi is None else min(hi, slack)
                elif atom in guard.atoms:
                    lo = max(lo, slack)
            if hi is None:
                hi = lo + 1  # unbounded location: any representative delay
            if lo <= hi:
                options.append((action, lo, hi))
        if not options:
            break
        action, lo, hi = options[rng.randrange(len(options))]
        ticks = rng.randint(math.ceil(lo * denominator), math.floor(hi * denominator))
        duration = Fraction(ticks, denominator)
        branches = model.transitions[(location, action)]
        draw = Fraction(rng.randrange(1, 2**32), 2**32)
        acc = Fraction(0)
        picked = branches[-1]
        for branch in branches:
            acc += branch.prob
            if draw <= acc:
                picked = branch
                break
        path.extend(duration, action, picked.resets, picked.target)
    return path

