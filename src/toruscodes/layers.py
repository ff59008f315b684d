"""Torus layer codebooks: positive-orthant spherical codes.

A layer codebook is an ordered set of tori whose c-vectors are pairwise at
least 2*delta apart, which keeps points on different layers at least
2*delta apart in the ambient space.  Construction is a deterministic greedy
packing on an angular grid; externally constructed codebooks can be
supplied instead.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .torus import TorusSpec, inter_torus_distance, min_separation, separation_rows  # noqa: F401

# inter_torus_distance stays importable from here: perfbench/traced.py
# wraps it by name.

__all__ = [
    "LayerCodebook",
    "ValidationReport",
    "InfeasibleSeparationError",
    "GridResolutionError",
    "design_layers",
    "validate_codebook",
]


class InfeasibleSeparationError(ValueError):
    """Requested separation leaves no meaningful multi-layer codebook."""


class GridResolutionError(ValueError):
    """The candidate grid would be too large or too small to search."""


_MAX_CANDIDATES = 5_000_000


@dataclass(frozen=True, eq=False)
class LayerCodebook:
    """Ordered torus layers with design separation min_sep = 2*delta."""

    layers: tuple
    min_sep: float
    achieved_sep: float

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("codebook needs at least one layer")
        if self.achieved_sep < self.min_sep - 1e-12:
            raise ValueError(
                f"achieved separation {self.achieved_sep} below target {self.min_sep}"
            )

    @property
    def size(self) -> int:
        return len(self.layers)

    @property
    def delta(self) -> float:
        return self.min_sep / 2.0

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "layers": [{"c": t.c.tolist()} for t in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerCodebook":
        layers = tuple(TorusSpec(np.asarray(item["c"], dtype=float)) for item in d["layers"])
        delta = float(d["delta"])
        return cls(layers=layers, min_sep=2.0 * delta, achieved_sep=min_separation(layers))

    @classmethod
    def from_json(cls, text: str) -> "LayerCodebook":
        return cls.from_dict(json.loads(text))


def _angle_grid_candidates(n: int, step: float) -> np.ndarray:
    """Unit vectors with strictly positive entries on an angular grid.

    Spherical angles theta_1..theta_{n-1} each range over multiples of step
    inside (0, pi/2); starting one step in keeps every coordinate strictly
    positive (boundary candidates are pushed inward by one step).
    """
    k = int(math.floor((math.pi / 2.0 - step / 2.0) / step))
    if k < 1:
        raise GridResolutionError("grid step too coarse for the quarter circle")
    if k ** (n - 1) > _MAX_CANDIDATES:
        raise GridResolutionError(
            f"angular grid would need {k ** (n - 1)} candidates; "
            "supply a user codebook or a coarser grid step"
        )
    angles = step * np.arange(1, k + 1)
    cands = np.empty((k ** (n - 1), n))
    grids = np.meshgrid(*([angles] * (n - 1)), indexing="ij")
    sin_running = np.ones_like(grids[0])
    for i in range(n - 1):
        cands[:, i] = (sin_running * np.cos(grids[i])).ravel()
        sin_running = sin_running * np.sin(grids[i])
    cands[:, n - 1] = sin_running.ravel()
    cands /= np.linalg.norm(cands, axis=1, keepdims=True)
    order = np.lexsort(tuple(cands[:, i] for i in reversed(range(n))))
    return cands[order]


def design_layers(
    n: int,
    delta: float,
    strategy: str = "grid-greedy",
    grid_step: float | None = None,
    layers=None,
    min_coordinate: float = 0.0,
) -> LayerCodebook:
    """Build a layer codebook with pairwise separation at least 2*delta.

    grid-greedy enumerates unit vectors with positive entries on an angular
    grid of step <= delta/2 (a documented tunable) and accepts candidates in
    lexicographic order whenever they keep distance >= 2*delta from all
    accepted ones.  Deterministic for fixed inputs.  The user-supplied
    strategy validates and wraps an explicit list of c-vectors instead.

    min_coordinate drops candidates whose smallest coordinate is at or below
    the threshold before the greedy runs; scheme design passes delta/2 here,
    since a torus can only host a curve of ball radius delta when
    2*min(c) > delta.
    """
    if n < 2:
        raise ValueError("need dimension >= 2")
    if not (0.0 < delta):
        raise ValueError("delta must be positive")
    if delta >= 0.5:
        raise InfeasibleSeparationError(
            f"delta = {delta} >= 0.5 leaves no useful positive-orthant codebook"
        )

    if strategy == "user-supplied":
        if not layers:
            raise ValueError("user-supplied strategy needs layers")
        specs = tuple(
            t if isinstance(t, TorusSpec) else TorusSpec(np.asarray(t, dtype=float))
            for t in layers
        )
        specs = tuple(sorted(specs, key=lambda t: tuple(t.c)))
        return LayerCodebook(
            layers=specs, min_sep=2.0 * delta, achieved_sep=min_separation(specs)
        )

    if strategy != "grid-greedy":
        raise ValueError(f"unknown strategy {strategy!r}")

    step = grid_step if grid_step is not None else delta / 2.0
    cands = _angle_grid_candidates(n, step)
    if min_coordinate > 0.0:
        cands = cands[cands.min(axis=1) > min_coordinate]
        if cands.shape[0] == 0:
            raise InfeasibleSeparationError(
                f"no candidate layer has all coordinates above {min_coordinate}"
            )
    accepted = np.empty_like(cands)  # rows [0, count) are the accepted layers
    count = 0
    target = 2.0 * delta
    for cand in cands:
        if count == 0 or np.min(np.linalg.norm(accepted[:count] - cand, axis=1)) >= target:
            accepted[count] = cand
            count += 1
    specs = tuple(TorusSpec(c) for c in accepted[:count])
    return LayerCodebook(
        layers=specs, min_sep=target, achieved_sep=min_separation(specs)
    )


@dataclass(frozen=True)
class ValidationReport:
    achieved_sep: float
    unconstrained: bool
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_codebook(codebook: LayerCodebook) -> ValidationReport:
    """Recompute all pairwise layer distances and report violations."""
    layers = codebook.layers
    if len(layers) < 2:
        return ValidationReport(achieved_sep=math.inf, unconstrained=True)
    violations = []
    best = math.inf
    for i, d in separation_rows(layers):
        best = min(best, float(d.min()))
        for k in np.flatnonzero(d < codebook.min_sep - 1e-12):
            violations.append((i, i + 1 + int(k), float(d[k])))
    return ValidationReport(
        achieved_sep=best, unconstrained=False, violations=tuple(violations)
    )
