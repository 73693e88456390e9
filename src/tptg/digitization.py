"""Dense-time paths, their integer digitizations, and Monte Carlo estimation.

Dense-time machinery works in exact rational arithmetic throughout: the
rounding operator's boundary case (a duration landing exactly on the
rounding threshold) must not depend on floating-point luck. The simulator
and estimator cross-validate solver outputs on explicit games.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Mapping, Sequence, Union

from .errors import ModelError
from .game import Tsg, TsgPath
from .model import Tptg, max_constants
from .semantics import state_index

Rational = Union[int, Fraction]

_Z99 = NormalDist().inv_cdf(0.995)


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
    index = state_index(game)
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


@dataclass
class SimulationRun:
    path: TsgPath
    hit: bool
    censored: bool
    price: float


Profile = Union[dict[int, str], tuple, Callable[[TsgPath], str]]


def _profile_fn(profile: Profile) -> Callable[[TsgPath], str]:
    if callable(profile):
        return profile
    if isinstance(profile, tuple):
        merged: dict[int, str] = {}
        for part in profile:
            merged.update(part)
        profile = merged
    table: Mapping[int, str] = profile

    def choose(path: TsgPath) -> str:
        state = path.last
        if state not in table:
            raise ModelError(f"profile undefined at reached state {state}")
        return table[state]

    return choose


def uniform_profile(rng: random.Random) -> Callable[[TsgPath], str]:
    """Scripted profile choosing uniformly among available moves."""

    def choose(path: TsgPath) -> str:
        moves = path.game.moves[path.last]
        return moves[rng.randrange(len(moves))].label

    return choose


def simulate(
    game: Tsg,
    profile: Profile,
    targets: Union[str, frozenset[int]],
    seed: int = 0,
    max_steps: int = 10_000,
    rng: random.Random | None = None,
) -> SimulationRun:
    """One reproducible run; stops on target, deadlock, or the step bound.

    The accumulated price covers every move up to and including the one that
    enters the target; runs starting inside the target cost nothing.
    """
    if max_steps < 0:
        raise ModelError(f"the step bound must be at least 0, not {max_steps}")
    rng = rng if rng is not None else random.Random(seed)
    target_set = game.label_states(targets) if isinstance(targets, str) else targets
    choose = _profile_fn(profile)
    path = TsgPath(game)
    price = 0.0
    if game.initial in target_set:
        return SimulationRun(path, hit=True, censored=False, price=0.0)
    for _ in range(max_steps):
        state = path.last
        if not game.moves[state]:
            return SimulationRun(path, hit=False, censored=False, price=price)
        label = choose(path)
        move = game.move(state, label)
        price += move.price
        draw = rng.random()
        acc = 0.0
        target = move.branches[-1][0]
        for candidate, p in move.branches:
            acc += p
            if draw <= acc:
                target = candidate
                break
        path.extend(label, target)
        if target in target_set:
            return SimulationRun(path, hit=True, censored=False, price=price)
    return SimulationRun(path, hit=False, censored=True, price=price)


@dataclass
class Estimate:
    samples: int
    hits: int
    censored: int
    probability: float
    probability_halfwidth: float
    price: float | None
    price_halfwidth: float | None

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "hits": self.hits,
            "censored": self.censored,
            "probability": self.probability,
            "probability_ci99": self.probability_halfwidth,
            "price": self.price,
            "price_ci99": self.price_halfwidth,
        }


def _mean_halfwidth(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, _Z99 * math.sqrt(variance / n)


def estimate(
    game: Tsg,
    profile: Profile,
    targets: Union[str, frozenset[int]],
    samples: int,
    max_steps: int = 10_000,
    seed: int = 0,
) -> Estimate:
    """Monte Carlo estimates with 99% normal-approximation intervals.

    Censored runs (step bound hit) count as misses for the probability
    estimate and are reported separately; the price estimate averages over
    hitting runs only.
    """
    if samples < 1:
        raise ModelError("need at least one sample")
    rng = random.Random(seed)
    hits = 0
    censored = 0
    indicator: list[float] = []
    prices: list[float] = []
    for _ in range(samples):
        run = simulate(game, profile, targets, max_steps=max_steps, rng=rng)
        indicator.append(1.0 if run.hit else 0.0)
        if run.hit:
            hits += 1
            prices.append(run.price)
        elif run.censored:
            censored += 1
    probability, prob_hw = _mean_halfwidth(indicator)
    if prices:
        price, price_hw = _mean_halfwidth(prices)
    else:
        price, price_hw = None, None
    return Estimate(samples, hits, censored, probability, prob_hw, price, price_hw)
