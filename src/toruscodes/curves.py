"""Closed curves on a flat torus and the winding-vector constructions.

A primitive integer vector u turns into the closed curve
x |-> embed(torus, 2*pi*u_hat*x) on [0, 1], where u_hat = (c_1 u_1, ...).
Its length is 2*pi*||u_hat||; its resolution/robustness tradeoff is governed
by the spacing between the parallel lines of its box pre-image, which equals
the shortest vector of the projection of diag(c)*Z^N onto the hyperplane
orthogonal to u_hat.

The scaled lifting construction generates winding vectors whose projection
lattices converge (in Gram distance) to any chosen target lattice, which is
how long curves with guaranteed spacing are found.  search_best_w looks for
the largest window w whose curve keeps a spacing target: it first drops
whole ranges of windows whose interval bound on ||u_hat|| shows that a
Hermite bound rules out every one of them, then computes the windings of
the remaining windows block by block as integer arrays, drops the windows
the Hermite bound rules out, and runs the exact shortest-vector spacing
only on the survivors, in descending w, until the first hit.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import (
    _OVERFLOW,
    LatticeBasis,
    PrimitivityError,
    _primitive_entries,
    projection_lattice_basis,
    shortest_vector,
)
from .torus import TorusSpec, embed, intra_torus_distance

__all__ = [
    "CurveSpec",
    "TargetLattice",
    "OutOfRangeError",
    "ConstructionViolatedError",
    "make_curve",
    "curve_point",
    "line_spacing",
    "small_ball_bounds",
    "ball_radius_to_spacing",
    "exact_small_ball_2d",
    "hexagonal_target",
    "integer_target",
    "fcc_target",
    "default_target",
    "lifting_dual_basis",
    "lifting_winding",
    "search_best_w",
]

_TWO_PI = 2.0 * math.pi


class OutOfRangeError(ValueError):
    """Argument outside the validity window of a formula."""


class ConstructionViolatedError(RuntimeError):
    """The lifting reduction failed; indicates a bug, not bad input."""


@dataclass(frozen=True, eq=False)
class CurveSpec:
    """A closed curve: a layer torus and a primitive winding u, whose first
    nonzero entry the constructor makes positive.

    The rest is derived on first use and cached: u_hat = c*u, the length
    2*pi*||u_hat||, the line spacing r of the box pre-image, and
    ball_lower/ball_upper, which bracket the small-ball radius (the largest
    non-self-intersecting tube radius around the curve, as chord length in
    the ambient space) and raise OutOfRangeError outside the window of
    small_ball_bounds.
    """

    torus: TorusSpec
    u: np.ndarray

    def __post_init__(self):
        xs = _primitive_entries(self.u, self.torus.dim)
        sign = 1 if next(x for x in xs if x) > 0 else -1
        u = np.array([sign * x for x in xs], dtype=np.int64)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @cached_property
    def u_hat(self) -> np.ndarray:
        u_hat = self.torus.c * self.u
        u_hat.flags.writeable = False
        return u_hat

    @cached_property
    def length(self) -> float:
        return _TWO_PI * float(np.linalg.norm(self.u_hat))

    @cached_property
    def spacing(self) -> float:
        return line_spacing(self.torus, self.u)

    @cached_property
    def ball_lower(self) -> float:
        return small_ball_bounds(self.torus, self.spacing)[0]

    @cached_property
    def ball_upper(self) -> float:
        return small_ball_bounds(self.torus, self.spacing)[1]

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        """c and u, plus the derived values for readers of the file;
        from_dict reads back only c and u."""
        return {
            "c": self.torus.c.tolist(),
            "u": [int(x) for x in self.u],
            "length": self.length,
            "spacing": self.spacing,
            "ball_lower": self.ball_lower,
            "ball_upper": self.ball_upper,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSpec":
        return cls(torus=TorusSpec(np.asarray(d["c"], dtype=float)), u=d["u"])

    @classmethod
    def from_json(cls, text: str) -> "CurveSpec":
        return cls.from_dict(json.loads(text))


def make_curve(torus: TorusSpec, u) -> CurveSpec:
    """The CurveSpec of winding u, with its spacing and ball bounds computed
    now: raises OutOfRangeError when the spacing lies outside the window of
    small_ball_bounds."""
    cs = CurveSpec(torus, u)
    cs.ball_lower
    return cs


def curve_point(cs: CurveSpec, x) -> np.ndarray:
    """Point of the curve at parameter x in [0, 1] (vectorized over x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise OutOfRangeError("curve parameter must lie in [0, 1]")
    box = _TWO_PI * x[..., None] * cs.u_hat
    return embed(cs.torus, box)


def line_spacing(torus: TorusSpec, u) -> float:
    """Minimum distance between distinct lines of the curve's box pre-image.

    Equals the shortest nonzero vector of the projection of diag(c)*Z^N onto
    the hyperplane orthogonal to u_hat.
    """
    return shortest_vector(projection_lattice_basis(torus.c, u)).norm


def small_ball_bounds(torus: TorusSpec, r: float) -> tuple[float, float]:
    """Bracket the small-ball radius of a curve with line spacing r.

    Returns (2*c_min*sin(pi*r/(2*c_min)), 2*sin(pi*r/2)).  Both tend to pi*r
    as r -> 0.  Valid only while pi*r/(2*c_min) <= pi/2, i.e. r <= c_min;
    beyond that window the derivation breaks down and an error is raised
    rather than clamping.
    """
    if r < 0.0:
        raise OutOfRangeError("spacing must be nonnegative")
    c_min = torus.c_min
    if r > c_min * (1.0 + 1e-12):
        raise OutOfRangeError(
            f"spacing {r} outside validity window (must be <= c_min = {c_min})"
        )
    lower = 2.0 * c_min * math.sin(math.pi * r / (2.0 * c_min))
    upper = 2.0 * math.sin(math.pi * r / 2.0)
    return lower, upper


def ball_radius_to_spacing(torus: TorusSpec, delta: float) -> float | None:
    """Invert the small-ball lower bound: smallest spacing giving radius delta.

    Returns None when the torus cannot host such a curve (its smallest
    coordinate radius saturates below delta).
    """
    c_min = torus.c_min
    if not delta > 0.0:  # NaN included
        raise ValueError("delta must be positive")
    if delta >= 2.0 * c_min:
        return None
    return (2.0 * c_min / math.pi) * math.asin(delta / (2.0 * c_min))


def exact_small_ball_2d(torus: TorusSpec, u) -> float:
    """Exact small-ball radius for a 2-d torus curve.

    In 2-d the nearest parallel line of the box pre-image sits at flat
    distance 2*pi*r across the direction perpendicular to u_hat, so the tube
    radius is attained at the flat half-gap: the chord distance between the
    curve and the point displaced by pi*r in the perpendicular direction.
    """
    if torus.dim != 2:
        raise ValueError("exact formula only applies to 2-d tori")
    cs = CurveSpec(torus, u)
    perp = np.array([-cs.u_hat[1], cs.u_hat[0]]) / float(np.linalg.norm(cs.u_hat))
    return float(intra_torus_distance(torus, math.pi * cs.spacing * perp, np.zeros(2)))


class TargetLattice:
    """Target for the lifting construction: lower-triangular dual generator."""

    def __init__(self, dual_generator):
        m = np.array(dual_generator, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dual generator must be square")
        if np.any(np.triu(m, 1) != 0.0):
            raise ValueError("dual generator must be lower triangular")
        if np.any(np.diag(m) <= 0.0):
            raise ValueError("dual generator needs strictly positive diagonal")
        m.flags.writeable = False
        self._m = m

    @property
    def dual_generator(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def gram(self) -> np.ndarray:
        return self._m @ self._m.T


def integer_target(scale: float = 1.0) -> TargetLattice:
    """1-d integer lattice target (used for curves on 2-d tori)."""
    return TargetLattice([[scale]])


def hexagonal_target(scale: float = 1.0) -> TargetLattice:
    """Hexagonal lattice target, the densest packing in two dimensions.

    scale=1 gives the unit-minimum generator [[1, 0], [1/2, sqrt(3)/2]];
    scale=2 the classical minimum-2 form [[2, 0], [1, sqrt(3)]].
    """
    s = float(scale)
    return TargetLattice([[s, 0.0], [s / 2.0, s * math.sqrt(3.0) / 2.0]])


def fcc_target() -> TargetLattice:
    """Face-centered-cubic target (densest in three dimensions) via its
    body-centered dual generator."""
    return TargetLattice([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5]])


# rank m -> (densest rank-m target, Hermite constant gamma_m): gamma_m is
# lambda_1^2 / det^(2/m) of the target's lattice, the dual of its generator's
_TARGETS = {
    1: (integer_target(), 1.0),
    2: (hexagonal_target(), 2.0 / math.sqrt(3.0)),
    3: (fcc_target(), 2.0 ** (1.0 / 3.0)),
}


def default_target(n: int) -> TargetLattice:
    """Densest built-in target for curves on an n-dimensional torus."""
    if n - 1 not in _TARGETS:
        raise ValueError(f"no built-in target lattice for torus dimension {n}")
    return _TARGETS[n - 1][0]


def _check_lifting_args(target: TargetLattice, c, w: int) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not np.all(c > 0.0):
        raise ValueError("c must have strictly positive entries")
    if c.size != target.dim + 1:
        raise ValueError(
            f"c must have length {target.dim + 1} for a {target.dim}-d target"
        )
    if abs(c[0] - 1.0) > 1e-12:
        raise ValueError("the construction assumes c[0] == 1 (rescale first)")
    if int(w) != w or w < 1:
        raise ValueError("w must be a positive integer")
    return c


def _window_floors(target: TargetLattice, c: np.ndarray, ws) -> np.ndarray:
    """Floor coefficients a[k, i, j] = floor((w_k * l[i][j]) * c[j]) as float64.

    Shape (len(ws), m, m) for an m-d target; entries above the diagonal are
    zero because the dual generator is lower triangular.
    """
    ws = np.asarray(ws, dtype=float)
    return np.floor((ws[:, None, None] * target.dual_generator) * c[: target.dim])


def lifting_dual_basis(target: TargetLattice, c, w: int) -> LatticeBasis:
    """Scaled-and-floored dual generator whose lattice is the dual of a
    projection of the rectangular lattice Z + c_2 Z + ... + c_N Z.

    Row i has entries floor(w*l[i][j]*c_j)/c_j for j <= i, then 1/c_{i+1},
    then zeros.  Dividing by w, the Gram matrix converges to the target's
    dual Gram as w grows, so the corresponding projections approximate the
    target lattice.
    """
    c = _check_lifting_args(target, c, w)
    m = target.dim
    rows = np.zeros((m, c.size))
    rows[:, :m] = _window_floors(target, c, [w])[0] / c[:m]
    rows[np.arange(m), np.arange(1, m + 1)] = 1.0 / c[1:]
    return LatticeBasis(rows)


_EXACT_BOUND = 2.0**61  # float bound on |u| beyond which windings use Python ints


def _lifting_windings(target: TargetLattice, c: np.ndarray, ws) -> np.ndarray:
    """Lifted windings for a block of windows ws, shape (len(ws), N).

    Row k is the winding of window ws[k]: u_1 = 1 and
    u_{i+1} = -(a[i][0] + sum_{1 <= j <= i} a[i][j] u_j), evaluated for all
    rows at once.  A float64 bound B_{i+1} = |a[i][0]| + sum_j |a[i][j]| B_j
    on |u| rides along; while it stays below 2**61 the recursion runs in
    int64 and cannot wrap.  Otherwise the block runs on exact Python
    integers (dtype object), so callers see the true entries, however large.
    """
    a = _window_floors(target, c, ws)
    m = target.dim
    bound = np.ones((a.shape[0], m + 1))
    for i in range(m):
        bound[:, i + 1] = np.abs(a[:, i, 0]) + (
            np.abs(a[:, i, 1 : i + 1]) * bound[:, 1 : i + 1]
        ).sum(axis=1)
    if np.all(bound < _EXACT_BOUND):
        a = a.astype(np.int64)
    else:
        a = np.frompyfunc(int, 1, 1)(a)
    u = np.empty((a.shape[0], m + 1), dtype=a.dtype)
    u[:, 0] = 1
    for i in range(m):
        acc = a[:, i, 0].copy()
        for j in range(1, i + 1):
            acc += a[:, i, j] * u[:, j]
        u[:, i + 1] = -acc
    return u


def _checked_winding(u: np.ndarray) -> np.ndarray:
    """One row of _lifting_windings as int64, refusing entries >= 2**62."""
    if np.abs(u).max() >= _OVERFLOW:
        raise ConstructionViolatedError("winding entries overflow the integer range")
    return u.astype(np.int64)


def lifting_winding(target: TargetLattice, c, w: int) -> np.ndarray:
    """Winding vector whose projection lattice realizes lifting_dual_basis.

    Integer row elimination of the floored matrix yields the winding
    recursively: u_1 = 1 and u_{i+1} = -(a[i][0] + sum_j a[i][j] u_j).  The
    result is primitive by construction.
    """
    c = _check_lifting_args(target, c, w)
    out = _checked_winding(_lifting_windings(target, c, [w])[0])
    if math.gcd(*out.tolist()) != 1:
        raise ConstructionViolatedError("lifting produced a non-primitive winding")
    return out


_SCAN_BLOCK = 256  # widest window range search_best_w scans as one block
_SKIP_MARGIN = 1e-9  # relative slack for rounding in the per-window norm


def _range_norm2_floor(target, c_scaled, c, lo: int, hi: int) -> float:
    """Lower bound on the scan's ||u_hat||^2 for every window in [lo, hi].

    Each floor a[i][j](w) is monotone in w (float rounding is monotone, so
    the computed floors are too), so over the range it lies between its
    values at lo and hi.  The winding recursion run once on those
    intervals, in exact integers, gives an interval for each u_i, and
    |u_i| is at least the smaller end's magnitude (0 for an interval that
    contains 0).  The bound is shrunk by _SKIP_MARGIN to cover the float
    rounding of the per-window norm.
    """
    a = _window_floors(target, c_scaled, [lo, hi])
    a_lo, a_hi = np.minimum(a[0], a[1]).tolist(), np.maximum(a[0], a[1]).tolist()
    box = [(1, 1)]
    for i in range(target.dim):
        low, high = int(a_lo[i][0]), int(a_hi[i][0])
        for j in range(1, i + 1):
            ends = [int(f) * u for f in (a_lo[i][j], a_hi[i][j]) for u in box[j]]
            low += min(ends)
            high += max(ends)
        box.append((-high, -low))
    norm2 = 0.0
    for cj, (low, high) in zip(c.tolist(), box):
        if low > 0 or high < 0:
            norm2 += (cj * min(abs(low), abs(high))) ** 2
    return norm2 / (1.0 + _SKIP_MARGIN) ** 2


def search_best_w(
    target: TargetLattice,
    torus: TorusSpec,
    r_min: float,
    w_max: int = 10_000,
) -> tuple[int, CurveSpec] | None:
    """Largest window w <= w_max whose lifted curve keeps spacing >= r_min.

    Spacing is not provably monotone in w, so the scan walks w downward and
    returns the first hit, which is exactly the largest feasible w.  A norm
    bound prunes hopeless w without a shortest-vector computation: a rank-m
    lattice of covolume V = prod(c) / ||u_hat|| has shortest vector at most
    sqrt(g_m) * V^(1/m) with g_m the Hermite constant, so any w with
    g_m^(m/2) * V < r_min^m is skipped.

    Whole ranges of windows are ruled out before any of their windings is
    computed.  The range [1, w_max] is split in halves, upper half first;
    a range whose interval bound on ||u_hat|| (_range_norm2_floor) shows that
    the prune fires on every one of its windows is dropped, and a range of
    at most _SCAN_BLOCK windows that is not is scanned as one block: its
    windings and its prune are array operations, and the exact line spacing
    is computed only for the windows that survive, in descending w, until
    the first hit.  A dropped window could never be a hit, so the result is the
    one of a scan of every window.  Where _TARGETS has no Hermite constant
    for the rank, nothing is pruned or dropped.  Memory does not depend on w_max.

    Returns None when no w in [1, w_max] is feasible.
    """
    if r_min <= 0.0:
        raise ValueError("r_min must be positive")
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    c = torus.c
    m = torus.dim - 1
    if target.dim != m:
        raise ValueError("target dimension must be torus dimension - 1")
    c_scaled = c / c[0]
    gamma = _TARGETS[m][1] if m in _TARGETS else None
    prod_c = float(np.prod(c))

    def pruned(norm2):
        # spacing provably below r_min where the bound fails
        return gamma ** (m / 2.0) * (prod_c / np.sqrt(norm2)) < r_min**m

    ranges = [(1, int(w_max))]
    while ranges:
        lo, hi = ranges.pop()
        if gamma is not None and pruned(_range_norm2_floor(target, c_scaled, c, lo, hi)):
            continue
        if hi - lo >= _SCAN_BLOCK:
            mid = (lo + hi) // 2
            ranges += [(lo, mid), (mid + 1, hi)]
            continue
        ws = np.arange(hi, lo - 1, -1)
        us = _lifting_windings(target, c_scaled, ws)
        survivors = range(len(ws))
        if gamma is not None:
            # ||u_hat||^2 summed term by term in index order; Python's x**2
            # is libm pow, which float_power calls too (x*x can differ in
            # the last bit)
            uf = us.astype(float)
            norm2 = np.float_power(c[0] * uf[:, 0], 2.0)
            for i in range(1, m + 1):
                norm2 = norm2 + np.float_power(c[i] * uf[:, i], 2.0)
            survivors = np.flatnonzero(~pruned(norm2))
        for k in survivors:
            cs = CurveSpec(torus, _checked_winding(us[k]))
            if cs.spacing >= r_min:
                try:
                    cs.ball_lower
                except OutOfRangeError:
                    continue  # spacing beyond the ball-bound window; try smaller w
                return int(ws[k]), cs
    return None
