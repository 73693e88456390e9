"""Clock constraints and saturating integer clock valuations.

Constraints are conjunctions of closed, diagonal-free atoms (``x <= c`` or
``x >= c`` with a natural constant). Valuations map clocks to naturals and
saturate at one past each clock's ceiling, so values beyond the largest
constant a clock is compared against collapse into a single representative.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import ModelError

LE = "<="
GE = ">="

Number = Union[int, Fraction]


@dataclass(frozen=True)
class Atom:
    """One comparison of a clock against a natural constant."""

    clock: str
    op: str
    bound: int

    def __post_init__(self):
        if self.op not in (LE, GE):
            raise ModelError(f"constraint atoms must use {LE} or {GE}, got {self.op!r}")
        if not isinstance(self.bound, int) or self.bound < 0:
            raise ModelError(f"constraint bound must be a natural number, got {self.bound!r}")

    def holds(self, value: Number) -> bool:
        return value <= self.bound if self.op == LE else value >= self.bound

    def __str__(self) -> str:
        return f"{self.clock}{self.op}{self.bound}"


@dataclass(frozen=True)
class ClockConstraint:
    """Conjunction of atoms; the empty conjunction is trivially true."""

    atoms: tuple[Atom, ...] = ()

    def conjoin(self, other: "ClockConstraint") -> "ClockConstraint":
        return ClockConstraint(self.atoms + other.atoms)

    def upper_bound(self, clock: str) -> int | None:
        """Tightest <=-bound on `clock`, or None if it has none."""
        bounds = [a.bound for a in self.atoms if a.clock == clock and a.op == LE]
        return min(bounds) if bounds else None

    def satisfied_by(self, valuation: Mapping[str, Number]) -> bool:
        for atom in self.atoms:
            if atom.clock not in valuation:
                raise ModelError(f"constraint mentions unknown clock {atom.clock!r}")
            if not atom.holds(valuation[atom.clock]):
                return False
        return True

    def __str__(self) -> str:
        return " & ".join(str(a) for a in self.atoms) if self.atoms else "true"


TRUE = ClockConstraint()


def clock_le(clock: str, bound: int) -> ClockConstraint:
    return ClockConstraint((Atom(clock, LE, bound),))


def clock_ge(clock: str, bound: int) -> ClockConstraint:
    return ClockConstraint((Atom(clock, GE, bound),))


def conjunction(*parts: ClockConstraint) -> ClockConstraint:
    atoms: tuple[Atom, ...] = ()
    for part in parts:
        atoms += part.atoms
    return ClockConstraint(atoms)


@dataclass(frozen=True)
class ClockValuation:
    """Integer clock values with per-clock saturation at ``ceiling + 1``.

    `ceilings` holds, per clock, the largest constant the clock is compared
    against anywhere in the model; advancing time never pushes a value past
    ``ceiling + 1``, which compares like any number above the ceiling.
    """

    clocks: tuple[str, ...]
    values: tuple[int, ...]
    ceilings: tuple[int, ...]

    @classmethod
    def zero(cls, ceilings: Mapping[str, int]) -> "ClockValuation":
        names = tuple(ceilings)
        return cls(names, (0,) * len(names), tuple(ceilings[x] for x in names))

    def __getitem__(self, clock: str) -> int:
        try:
            return self.values[self.clocks.index(clock)]
        except ValueError:
            raise ModelError(f"unknown clock {clock!r}") from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.clocks, self.values))

    def advance(self, t: int) -> "ClockValuation":
        """Add `t` to every clock, saturating each at its ceiling plus one."""
        if t < 0:
            raise ModelError("time advance must be non-negative")
        if t == 0:
            return self
        values = tuple(
            min(v + t, k + 1) for v, k in zip(self.values, self.ceilings)
        )
        return ClockValuation(self.clocks, values, self.ceilings)

    def reset(self, subset: Iterable[str]) -> "ClockValuation":
        subset = frozenset(subset)
        unknown = subset - set(self.clocks)
        if unknown:
            raise ModelError(f"reset of unknown clock(s) {sorted(unknown)}")
        if not subset:
            return self
        values = tuple(
            0 if x in subset else v for x, v in zip(self.clocks, self.values)
        )
        return ClockValuation(self.clocks, values, self.ceilings)

    def satisfies(self, constraint: ClockConstraint) -> bool:
        for atom in constraint.atoms:
            if not atom.holds(self[atom.clock]):
                return False
        return True
