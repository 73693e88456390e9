"""Seeded simulation of a built game, and Monte Carlo estimation.

`simulate` plays one reproducible run under a strategy profile and records
it as a `SimulationRun`; `estimate` draws many and reports an `Estimate`
with 99% normal-approximation intervals; `uniform_profile` scripts a side
that picks uniformly among its moves. They serve ``tptg simulate`` and
cross-validate solver outputs on explicit games.
"""

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Mapping, Sequence, Union

from .errors import ModelError
from .game import Tsg, TsgPath

_Z99 = NormalDist().inv_cdf(0.995)


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
    total = 0.0  # added in order on every version (`sum` compensates from 3.12)
    for v in values:
        total += v
    mean = total / n
    if n < 2:
        return mean, 0.0
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return mean, _Z99 * math.sqrt(squares / (n - 1) / n)


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
