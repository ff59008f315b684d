"""Flat tori inside the unit sphere.

A unit vector c with positive entries defines an N-dimensional flat torus
T_c inside S^(2N-1): each coordinate u_i of a point in the box
[0, 2*pi*c_i) is mapped to a circle of radius c_i.  The chart is a local
isometry, so box geometry (up to chord-vs-arc effects) transfers to the
sphere.  This module holds the chart, the box reduction, and the distance
formulas and bounds used everywhere else.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusSpec",
    "embed",
    "reduce_to_box",
    "inter_torus_distance",
    "separation_rows",
    "min_separation",
    "intra_torus_distance",
    "distance_bounds",
]

_TWO_PI = 2.0 * math.pi


def _is_int(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _number(x, name: str) -> float:
    """x as a float; a bool or a string (JSON true, "2.5") raises ValueError."""
    if isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        return float(x)  # floats first: the numbers.Real check is slow
    raise ValueError(f"{name} must be a number, got {x!r}")


def _sinc(x):
    """sin(x)/x with a series branch near zero (exact limit 1 at x=0)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0
    xl = x[~small]
    out[~small] = np.sin(xl) / xl
    return out


@dataclass(frozen=True, eq=False)
class TorusSpec:
    """A flat torus, given by a unit vector c with strictly positive entries."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("c must be a 1-d vector")
        for x in self.c:  # dtype=float takes a bool or a numeric string
            _number(x, "each entry of c")
        # c.min() is NaN when an entry is, which fails the test too
        if not c.min() > 0.0:
            raise ValueError("all entries of c must be strictly positive")
        norm = math.sqrt(c.dot(c))  # the bits of np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"c must be a unit vector, got norm {norm!r}")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def c_min(self) -> float:
        return float(self.c.min())

    @property
    def box_periods(self) -> np.ndarray:
        return _TWO_PI * self.c

    def __eq__(self, other):
        return isinstance(other, TorusSpec) and np.array_equal(self.c, other.c)


def embed(torus: TorusSpec, u) -> np.ndarray:
    """Map box coordinates u (shape (..., N)) to the sphere point (..., 2N).

    Coordinate pair 2i, 2i+1 is c_i*(cos(u_i/c_i), sin(u_i/c_i)).  The image
    always has unit norm.  Periodic with period 2*pi*c_i in coordinate i.
    """
    return _embed(torus.c, np.asarray(u, dtype=float))


def _embed(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """embed with radii c that broadcast against u, e.g. one torus per row."""
    angles = u / c
    out = np.empty(angles.shape[:-1] + (2 * angles.shape[-1],), dtype=float)
    np.multiply(c, np.cos(angles), out=out[..., 0::2])
    np.multiply(c, np.sin(angles), out=out[..., 1::2])
    return out


def reduce_to_box(torus: TorusSpec, u) -> np.ndarray:
    """Componentwise reduction of u into the fundamental box [0, 2*pi*c_i)."""
    u = np.asarray(u, dtype=float)
    return np.mod(u, torus.box_periods)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Norms of the rows of d with the bits of the 1-D np.linalg.norm of
    each, one BLAS dot product per row, for inter_torus_distance,
    min_separation and so LayerCodebook.achieved_sep.  np.linalg.norm(d,
    axis=1), whose index-order sum layers._distance2 follows for the layer
    greedy, differs from it in the last bit on about 9-15% of random pairs
    at N = 2 to 7; LayerCodebook's 1e-12 slack on min_sep absorbs that."""
    d = np.ascontiguousarray(d)
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def inter_torus_distance(a: TorusSpec, b: TorusSpec) -> float:
    """Minimum distance between two flat tori: the norm of c_a - c_b."""
    if a.dim != b.dim:
        raise ValueError("tori must have the same dimension")
    return float(_row_norms((a.c - b.c)[None, :])[0])


def separation_rows(tori):
    """Pairwise inter_torus_distance values, one row of the pair matrix at a time.

    Yields (i, d) for i = 0 .. M-2, where d[k] is the distance between
    tori[i] and tori[i + 1 + k], bit-identical to inter_torus_distance.
    Memory stays O(M*N) however many layers there are.
    """
    cs = [t.c for t in tori]
    if len({c.size for c in cs}) > 1:
        raise ValueError("tori must have the same dimension")
    cs = np.array(cs)
    for i in range(cs.shape[0] - 1):
        yield i, _row_norms(cs[i + 1 :] - cs[i])


def min_separation(tori) -> float:
    """Smallest pairwise inter_torus_distance; inf for fewer than two tori."""
    return min((float(d.min()) for _, d in separation_rows(tori)), default=math.inf)


def intra_torus_distance(torus: TorusSpec, u, v) -> np.ndarray | float:
    """Chord distance in R^(2N) between the images of box points u and v.

    Equals 2*sqrt(sum c_i^2 sin^2((u_i - v_i)/(2 c_i))), identically the
    Euclidean distance between embed(u) and embed(v).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = torus.c
    s = np.sin((u - v) / (2.0 * c))
    d = 2.0 * np.sqrt(np.sum((c * s) ** 2, axis=-1))
    return float(d) if d.ndim == 0 else d


def distance_bounds(torus: TorusSpec, flat_dist: float) -> tuple[float, float]:
    """Chord-distance bounds for a given box displacement norm.

    For box points u, v at Euclidean distance D = ||u - v||, the chord
    distance delta between their images satisfies

        sinc(D / (2 c_min)) * D  <=  delta  <=  sinc(D / 2) * D,

    where c_min is the smallest entry of c.  The lower bound additionally
    dominates (2/pi)*D whenever D/(2 c_min) <= pi/2.  Both bounds tend to D
    as D -> 0.  The sandwich is only meaningful in the monotone window
    D <= pi*c_min; outside it the formulas are still evaluated as written.
    """
    if not flat_dist >= 0.0:  # NaN included
        raise ValueError("distance must be nonnegative")
    d = float(flat_dist)
    lower = float(_sinc(d / (2.0 * torus.c_min))) * d
    upper = float(_sinc(d / 2.0)) * d
    return lower, upper
