"""Torus layer codebooks: positive-orthant spherical codes.

A layer codebook is an ordered set of tori whose c-vectors are pairwise at
least 2*delta apart, which keeps points on different layers at least
2*delta apart in the ambient space.  A codebook is its layers and its
target separation; the constructor derives the achieved separation and
rejects layers that fall short of the target, so every codebook, whether
designed, read from a file or given by a caller, passes the same check.
Construction is a deterministic greedy packing on an angular grid, whose
points below the minimum coordinate are dropped before the grid is sorted.
The grid is built and sorted in slabs of whole first angles, in the order
of one sort of the whole grid, so design memory grows with one slab and the
layer count, not with the grid.  The greedy takes each slab in blocks: one
array pass checks a block against the layers accepted before it, one more
gives the distances between its survivors, and a loop over that matrix
accepts them in order.
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
_GREEDY_PAIRS = 16_384  # most (candidate, accepted layer) pairs per block, and
# about the coordinates of one grid slab (_grid_slabs)


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


def _grid_slabs(n: int, step: float, min_coordinate: float = 0.0):
    """The candidate grid of _angle_grid_candidates, one slab at a time.

    A slab holds every candidate of as many consecutive first angles
    theta_1 as fit in _GREEDY_PAIRS coordinates (the floats of a greedy
    block's distance array), and at least one; it is built, normalised,
    filtered and sorted on its own.  Slabs come from the largest theta_1
    down.  The grid cap is checked before the first slab is built.
    """
    k = int(math.floor((math.pi / 2.0 - step / 2.0) / step))
    if k ** (n - 1) > _MAX_CANDIDATES:
        raise GridResolutionError(
            f"angular grid would need {k ** (n - 1)} candidates; "
            "supply a codebook or a larger delta"
        )
    angles = step * np.arange(1, k + 1)
    group = max(1, _GREEDY_PAIRS // (n * k ** (n - 2)))
    for top in range(k, 0, -group):
        first = angles[max(top - group, 0) : top]
        grids = np.meshgrid(first, *([angles] * (n - 2)), indexing="ij")
        cands = np.empty((grids[0].size, n))
        sin_running = np.ones_like(grids[0])
        for i in range(n - 1):
            cands[:, i] = (sin_running * np.cos(grids[i])).ravel()
            sin_running = sin_running * np.sin(grids[i])
        cands[:, n - 1] = sin_running.ravel()
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        if min_coordinate > 0.0:
            cands = cands[cands.min(axis=1) > min_coordinate]
        yield cands[np.lexsort(tuple(cands[:, i] for i in reversed(range(n))))]


def _angle_grid_candidates(n: int, step: float, min_coordinate: float = 0.0) -> np.ndarray:
    """Unit vectors with strictly positive entries on an angular grid, in
    lexicographic order: the slabs of _grid_slabs, concatenated.

    Spherical angles theta_1..theta_{n-1} each range over multiples of step
    inside (0, pi/2); starting one step in keeps every coordinate strictly
    positive (boundary candidates are pushed inward by one step).  When
    min_coordinate > 0, vectors whose smallest coordinate is at or below it
    are dropped before the sort; the sort is stable, so the kept vectors
    keep the order they have among all of them.

    Sorting slab by slab gives the order of one sort of the whole grid.
    Each coordinate comes from the same elementwise products and the same
    row norm in any slab, so its bits do not depend on the slab.  The sort
    keys first on the first coordinate, cos(theta_1) over a row norm that
    is 1 to a few ulps; two first angles one step apart differ there by at
    least cos(step) - cos(2 step), ~1.5 step**2, which the grid cap keeps
    above 1e-13 (7e-7 from n = 3 on), far above those ulps.  So every
    candidate of a larger theta_1 sorts first, and a slab must hold whole
    theta_1s: within one, the order is set by the last bits of the
    normalised first coordinate, not by theta_2.
    """
    return np.concatenate(list(_grid_slabs(n, step, min_coordinate)))


def _distance2(points, columns, work=None) -> np.ndarray:
    """Squared distances from the rows of points to the columns.

    Squared differences are summed coordinate by coordinate in index order,
    as np.linalg.norm(d, axis=1) sums fewer than 8 terms, so below 8
    coordinates the sqrt of a distance here has the bits of that row norm,
    the greedy reference of the layer tests; sqrt is monotone, so a sqrt taken after a min gives the
    bits of the min of the norms.  torus._row_norms, which gives
    achieved_sep, follows the 1-D np.linalg.norm instead, a BLAS dot, and
    the two differ in the last bit on about 9-15% of random pairs at N = 2
    to 7; LayerCodebook's 1e-12 slack on min_sep absorbs that.  The
    temporaries are two arrays of one float per (point, column) pair, views
    of work when a buffer with room for them is given; the result is the
    first.  Greedy blocks that took them afresh made glibc's allocator hand
    them back to the system and fault them in again, ~1e5 page faults in
    one N=4 delta=.05 design.
    """
    pairs = points.shape[0] * columns.shape[1]
    if work is None:
        work = np.empty(2 * pairs)
    d2 = work[:pairs].reshape(points.shape[0], -1)
    d = work[pairs : 2 * pairs].reshape(d2.shape)
    np.subtract(points[:, 0, None], columns[0], d2)
    d2 *= d2
    for k in range(1, columns.shape[0]):
        np.subtract(points[:, k, None], columns[k], d)
        d *= d
        d2 += d
    return d2


def _spread(points, target: float) -> list:
    """Indices of the rows of points that a greedy in row order keeps: each
    at distance >= target from the rows kept before it.  One array
    operation gives the distances of every pair; a loop over the kept rows
    takes the first row still free and frees only the rows far from it."""
    far = np.sqrt(_distance2(points, points.T)) >= target
    free = np.ones(len(points), dtype=bool)
    kept = []
    while free.any():
        j = int(free.argmax())
        kept.append(j)
        free[j] = False
        free &= far[:, j]
    return kept


def design_layers(n: int, delta: float, min_coordinate: float = 0.0) -> LayerCodebook:
    """Build a layer codebook with pairwise separation at least 2*delta.

    The greedy enumerates unit vectors with positive entries on an angular
    grid of step delta/2 and accepts candidates in lexicographic order
    whenever they keep distance >= 2*delta from all accepted ones.  Within
    one first angle that order is set by the rounding of the normalised
    first coordinate, not by theta_2 (_angle_grid_candidates).
    Deterministic for fixed inputs.  The grid comes in the slabs of
    _grid_slabs, so its memory is one slab's, O(k**(n-2) * n) for k angles
    a side, not O(k**(n-1) * n); the accepted layers sit in a buffer that
    doubles as they grow.  The greedy runs block by block: one
    array operation checks a block of candidates against the layers
    accepted before it, one more gives the distances between the block's
    survivors, and a loop over that matrix accepts each survivor, in order,
    that is far from the survivors accepted before it.  A block holds at
    most _GREEDY_BLOCK candidates and _GREEDY_PAIRS (candidate, accepted
    layer) pairs, so the distance buffer that the blocks reuse stays within
    0.5 MiB up to _GREEDY_PAIRS layers.  Every distance is summed as
    np.linalg.norm sums it, so the codebook is the one of a greedy that
    checks one candidate at a time, whatever the block and slab boundaries.
    Given layers need no design: LayerCodebook(layers, 2*delta) checks them
    and keeps their order.

    min_coordinate drops candidates whose smallest coordinate is at or below
    the threshold, before the grid is sorted; scheme design passes delta/2
    here, since a torus can only host a curve of ball radius delta when
    2*min(c) > delta.  A grid it leaves empty accepts no layer and raises
    InfeasibleSeparationError.
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

    accepted = np.empty((n, _GREEDY_BLOCK))  # columns [0, count) are the accepted layers
    count = 0
    target = 2.0 * delta
    work = np.empty(0)  # the blocks' _distance2 temporaries, grown twice over
    for slab in _grid_slabs(n, delta / 2.0, min_coordinate):
        start = 0
        while start < slab.shape[0]:
            size = max(1, min(_GREEDY_BLOCK, _GREEDY_PAIRS // max(count, 1)))
            block = slab[start : start + size]
            start += block.shape[0]
            if count:
                if work.size < 2 * block.shape[0] * count:
                    work = np.empty(4 * block.shape[0] * count)
                near2 = _distance2(block, accepted[:, :count], work).min(axis=1)
                block = block[np.sqrt(near2) >= target]
            if block.shape[0] > 1:
                block = block[_spread(block, target)]
            if count + block.shape[0] > accepted.shape[1]:
                accepted = np.concatenate((accepted, np.empty_like(accepted)), axis=1)
            accepted[:, count : count + block.shape[0]] = block.T
            count += block.shape[0]
    if count == 0:
        raise InfeasibleSeparationError(
            f"no candidate layer has all coordinates above {min_coordinate}"
        )
    specs = tuple(TorusSpec(c) for c in accepted[:, :count].T)
    return LayerCodebook(layers=specs, min_sep=target)
