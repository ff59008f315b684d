"""Torus layer codebooks: positive-orthant spherical codes.

A layer codebook is an ordered set of tori whose c-vectors are pairwise at
least 2*delta apart, which keeps points on different layers at least
2*delta apart in the ambient space.  A codebook is its layers and its
target separation; the constructor derives the achieved separation and
rejects layers that fall short of the target, so every codebook, whether
designed, read from a file or given by a caller, passes the same check.
Construction is a deterministic greedy packing on an angular grid, whose
points below the minimum coordinate are dropped before the grid is sorted.
The greedy takes the sorted grid in blocks: one array pass checks a block
against the layers accepted before it, one more gives the distances between
its survivors, and a loop over that matrix accepts them in order.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .torus import TorusSpec, _is_int, _number, inter_torus_distance, min_separation  # noqa: F401

# inter_torus_distance stays importable from here: perfbench/traced.py
# wraps it by name.

__all__ = [
    "LayerCodebook",
    "InfeasibleSeparationError",
    "GridResolutionError",
    "design_layers",
]


class InfeasibleSeparationError(ValueError):
    """Requested separation leaves no meaningful multi-layer codebook."""


class GridResolutionError(ValueError):
    """The candidate grid would be too large to search."""


_MAX_CANDIDATES = 5_000_000
_GREEDY_BLOCK = 64  # most candidates per block of the layer greedy
_GREEDY_PAIRS = 16_384  # most (candidate, accepted layer) pairs per block


@dataclass(frozen=True, eq=False)
class LayerCodebook:
    """Ordered torus layers with design separation min_sep = 2*delta.

    The layers keep the order given.  achieved_sep, the smallest distance
    between two layers (inf for one layer), is derived once, and the
    constructor rejects a codebook whose layers are closer than min_sep.
    """

    layers: tuple
    min_sep: float

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("codebook needs at least one layer")
        if not (math.isfinite(self.min_sep) and self.min_sep >= 0.0):
            raise ValueError("separation min_sep must be finite and nonnegative")
        if self.achieved_sep < self.min_sep - 1e-12:
            raise ValueError(
                f"achieved separation {self.achieved_sep} below target {self.min_sep}"
            )

    @cached_property
    def achieved_sep(self) -> float:
        return min_separation(self.layers)

    @property
    def size(self) -> int:
        return len(self.layers)

    @property
    def delta(self) -> float:
        return self.min_sep / 2.0

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "layers": [{"c": t.c.tolist()} for t in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerCodebook":
        layers = tuple(TorusSpec(item["c"]) for item in d["layers"])
        return cls(layers=layers, min_sep=2.0 * _number(d["delta"], "delta"))


def _angle_grid_candidates(n: int, step: float, min_coordinate: float = 0.0) -> np.ndarray:
    """Unit vectors with strictly positive entries on an angular grid, in
    lexicographic order.

    Spherical angles theta_1..theta_{n-1} each range over multiples of step
    inside (0, pi/2); starting one step in keeps every coordinate strictly
    positive (boundary candidates are pushed inward by one step).  When
    min_coordinate > 0, vectors whose smallest coordinate is at or below it
    are dropped before the sort; the sort is stable, so the kept vectors
    keep the order they have among all of them.
    """
    k = int(math.floor((math.pi / 2.0 - step / 2.0) / step))
    if k ** (n - 1) > _MAX_CANDIDATES:
        raise GridResolutionError(
            f"angular grid would need {k ** (n - 1)} candidates; "
            "supply a codebook or a larger delta"
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
    if min_coordinate > 0.0:
        cands = cands[cands.min(axis=1) > min_coordinate]
    order = np.lexsort(tuple(cands[:, i] for i in reversed(range(n))))
    return cands[order]


def _distance2(points, columns) -> np.ndarray:
    """Squared distances from the rows of points to the columns.

    Squared differences are summed coordinate by coordinate in index order,
    as np.linalg.norm(d, axis=1) sums fewer than 8 terms, so below 8
    coordinates the sqrt of a distance here has the bits of that row norm,
    the greedy reference of the layer tests; sqrt is monotone, so a sqrt taken after a min gives the
    bits of the min of the norms.  torus._row_norms, which gives
    achieved_sep, follows the 1-D np.linalg.norm instead, a BLAS dot, and
    the two differ in the last bit on about 9-15% of random pairs at N = 2
    to 7; LayerCodebook's 1e-12 slack on min_sep absorbs that.  The
    temporaries are two arrays of one float per (point, column) pair.
    """
    d2 = points[:, 0, None] - columns[0]
    d2 *= d2
    for k in range(1, columns.shape[0]):
        d = points[:, k, None] - columns[k]
        d *= d
        d2 += d
    return d2


def _spread(points, target: float) -> list:
    """Indices of the rows of points that a greedy in row order keeps: each
    at distance >= target from the rows kept before it.  One array
    operation gives the distances of every pair, a loop over them the
    rows."""
    far = (np.sqrt(_distance2(points, points.T)) >= target).tolist()
    kept = []
    for j, row in enumerate(far):
        if all(row[i] for i in kept):
            kept.append(j)
    return kept


def design_layers(n: int, delta: float, min_coordinate: float = 0.0) -> LayerCodebook:
    """Build a layer codebook with pairwise separation at least 2*delta.

    The greedy enumerates unit vectors with positive entries on an angular
    grid of step delta/2 and accepts candidates in lexicographic order
    whenever they keep distance >= 2*delta from all accepted ones.
    Deterministic for fixed inputs.  The greedy runs block by block: one
    array operation checks a block of candidates against the layers
    accepted before it, one more gives the distances between the block's
    survivors, and a loop over that matrix accepts each survivor, in order,
    that is far from the survivors accepted before it.  A block holds at
    most _GREEDY_BLOCK candidates and _GREEDY_PAIRS (candidate, accepted
    layer) pairs, so its temporaries stay under 0.5 MB whatever the number
    of layers.  Every distance is summed as np.linalg.norm sums it, so the
    codebook is the one of a greedy that checks one candidate at a time.
    Given layers need no design: LayerCodebook(layers, 2*delta) checks them
    and keeps their order.

    min_coordinate drops candidates whose smallest coordinate is at or below
    the threshold, before the grid is sorted; scheme design passes delta/2
    here, since a torus can only host a curve of ball radius delta when
    2*min(c) > delta.
    """
    if not _is_int(n):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("need dimension >= 2")
    if not (0.0 < delta):
        raise ValueError("delta must be positive")
    if math.isnan(min_coordinate):
        raise ValueError("min_coordinate must not be NaN")
    if delta >= 0.5:
        raise InfeasibleSeparationError(
            f"delta = {delta} >= 0.5 leaves no useful positive-orthant codebook"
        )

    cands = _angle_grid_candidates(n, delta / 2.0, min_coordinate)
    if cands.shape[0] == 0:
        raise InfeasibleSeparationError(
            f"no candidate layer has all coordinates above {min_coordinate}"
        )
    accepted = np.empty((n, cands.shape[0]))  # columns [0, count) are the accepted layers
    count = 0
    target = 2.0 * delta
    start = 0
    while start < cands.shape[0]:
        size = max(1, min(_GREEDY_BLOCK, _GREEDY_PAIRS // max(count, 1)))
        block = cands[start : start + size]
        start += block.shape[0]
        if count:
            block = block[np.sqrt(_distance2(block, accepted[:, :count]).min(axis=1)) >= target]
        if block.shape[0] > 1:
            block = block[_spread(block, target)]
        accepted[:, count : count + block.shape[0]] = block.T
        count += block.shape[0]
    specs = tuple(TorusSpec(c) for c in accepted[:, :count].T)
    return LayerCodebook(layers=specs, min_sep=target)
