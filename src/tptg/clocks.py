"""Clock constraints: conjunctions of closed, diagonal-free atoms (``x <= c``
or ``x >= c`` with a natural constant)."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

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
