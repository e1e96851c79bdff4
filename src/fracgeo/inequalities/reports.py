"""Report records for inequality checks and the dyadic sequence model.

Every check produces an InequalityReport: the two sides of the bound, the
constant used with its provenance, the margin, and enough context (params,
resolution, seed) to rerun it. A check passes when margin >= -tolerance;
identity checks (`identity_report`) put the value in lhs and the target in
rhs, and only gauss-law puts its worst deviation in lhs, its allowance in rhs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..geometry import GeometryError


class InvalidSequenceError(GeometryError):
    pass


@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    margin: float
    constant_used: Optional[float] = None
    constant_provenance: str = "none"
    params: dict = field(default_factory=dict)
    resolution: Optional[int] = None
    seed: Optional[int] = None
    estimated_error: float = 0.0
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        # a shallow copy: `dataclasses.asdict` deep-copies params and details
        return dict(vars(self))


def bound_report(name, lhs, rhs, tolerance, **kw) -> InequalityReport:
    """Report for a one-sided bound lhs <= rhs up to tolerance."""
    margin = float(rhs) - float(lhs)
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=float(tolerance),
        passed=bool(margin >= -tolerance),
        margin=margin,
        **kw,
    )


def fit_constant(reports) -> tuple[list[InequalityReport], float]:
    """Fit one constant over bound reports whose rhs is the bound at constant 1.

    c is the largest lhs/rhs over reports with rhs > 1e-12, times 1 + 1e-9,
    or 0.0 when there is none. Each report is reissued with rhs and
    tolerance scaled by c and c as its constant. This is the one place a
    fitted constant is applied: the fitted checks return their rhs at
    constant 1 and zero tolerance, and each instance is evaluated once.
    """
    c = max((r.lhs / r.rhs for r in reports if r.rhs > 1e-12), default=0.0)
    c *= 1.0 + 1e-9
    fitted = [
        bound_report(
            r.name,
            r.lhs,
            c * r.rhs,
            c * r.tolerance,
            constant_used=c,
            constant_provenance=r.constant_provenance,
            params=r.params,
            resolution=r.resolution,
            seed=r.seed,
            estimated_error=r.estimated_error,
            details=r.details,
        )
        for r in reports
    ]
    return fitted, c


def identity_report(name, value, target, rel_tolerance, **kw) -> InequalityReport:
    """Report for an identity |value - target| <= rel_tolerance * |target|."""
    dev = abs(float(value) - float(target))
    allow = rel_tolerance * max(abs(float(target)), 1e-300)
    return InequalityReport(
        name=name,
        lhs=float(value),
        rhs=float(target),
        tolerance=float(allow),
        passed=bool(dev <= allow),
        margin=float(allow - dev),
        **kw,
    )


@dataclass
class SlicingSequence:
    """Non-increasing dyadic level sequence with a finite variation window.

    Models a_i for all integers i: constant at `values[0]` for i below
    `start`, equal to `values[i - start]` inside the window, and zero at and
    beyond the cutoff start + len(values). This is the shape taken by level
    measures i -> |{u > 2^i}| of bounded compactly supported functions, and
    every series over it sums in closed form (geometric left tail).
    """

    start: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise InvalidSequenceError("window must hold at least one value")
        if np.any(self.values < 0.0):
            raise InvalidSequenceError("level measures cannot be negative")
        if np.any(np.diff(self.values) > 0.0):
            raise InvalidSequenceError("level measures must be non-increasing")
        if not np.all(np.isfinite(self.values)):
            raise InvalidSequenceError("level measures must be finite")

    @property
    def cutoff(self) -> int:
        return self.start + len(self.values)

    def term(self, i: int) -> float:
        if i >= self.cutoff:
            return 0.0
        if i < self.start:
            return float(self.values[0])
        return float(self.values[i - self.start])


def geometric_tail(p: float, last: int) -> float:
    """Sum of 2**(p*i) over all integers i <= last, in closed form."""
    return 2.0 ** (p * last) / (1.0 - 2.0 ** (-p))
