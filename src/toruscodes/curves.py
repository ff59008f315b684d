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
the largest window w whose curve keeps a spacing target, aiming at the
densest lattice of rank N-1 in the _TARGETS table.  It cuts [1, w_max]
into blocks of windows from the top down and drops every block whose
interval bound on ||u_hat|| shows that a Hermite bound rules out all of
its windows; then it computes the windings of the surviving blocks as
integer arrays and drops the windows the Hermite bound rules out.  A
surviving window whose own lifting rows give a line vector shorter than
the target (a certificate checked in exact integers) is rejected without a
lattice reduction; the exact shortest-vector spacing runs only on the
windows left, in descending w, until the first hit.  _search_layers runs
that search for every layer of a codebook at once: the block bounds of all
layers in array passes of fixed size, and the windings, prune and
certificate screen of one surviving block of many layers in one wave, so a
codebook costs one batched search, not one per layer.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .lattices import (  # noqa: F401
    _OVERFLOW,
    InvalidDirectionError,
    LatticeBasis,
    PrimitivityError,
    _integer_scale,
    _line_lattice,
    _primitive_entries,
    _shortest,
    projection_lattice_basis,
    shortest_vector,
)
from .torus import TorusSpec, _is_int, embed, intra_torus_distance

# projection_lattice_basis and shortest_vector are imported for
# perfbench/traced.py, which wraps them by name; line_spacing calls neither.

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
    the hyperplane orthogonal to u_hat: _shortest of the rows of
    _line_lattice scaled by 1/(2*pi), the rows that
    projection_lattice_basis(torus.c, u) holds, so the two routes give the
    same bits.  The winding is checked as there; the torus has checked c.
    """
    u = _primitive_entries(u, torus.dim, zero_error=InvalidDirectionError)
    if torus.dim < 2:
        raise ValueError("need ambient dimension >= 2")
    return _shortest(_line_lattice(torus.c, u)[1] / _TWO_PI).norm


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
    if not (_is_int(w) and w >= 1):
        raise ValueError(f"w must be a positive integer, got {w!r}")
    return c


def _window_floors(target: TargetLattice, c: np.ndarray, ws) -> np.ndarray:
    """Floor coefficients a[k, i, j] = floor((w_k * l[i][j]) * c[j]) as float64.

    c is one scale vector, or one row per window.  Shape (len(ws), m, m) for
    an m-d target; entries above the diagonal are zero because the dual
    generator is lower triangular.
    """
    ws = np.asarray(ws, dtype=float)
    return np.floor((ws[:, None, None] * target.dual_generator) * c[..., None, : target.dim])


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


def _exact(a: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Integer-valued floors a as int64 or, where that could wrap, as exact
    Python integers (dtype object).

    size (shape (B, m, m)) bounds |a| row by row.  The float64 bound
    B_0 = 1, B_{i+1} = size[i][0] + sum_{1 <= j <= i} size[i][j] B_j covers
    every partial sum of the winding recursion on a; while it stays below
    2**61 on every row, int64 cannot wrap.
    """
    m = size.shape[1]
    bound = np.ones((size.shape[0], m + 1))
    for i in range(m):
        bound[:, i + 1] = size[:, i, 0] + (size[:, i, 1 : i + 1] * bound[:, 1 : i + 1]).sum(
            axis=1
        )
    if np.all(bound < _EXACT_BOUND):
        return a.astype(np.int64)
    return np.frompyfunc(int, 1, 1)(a)


def _lifting_windings(target: TargetLattice, c: np.ndarray, ws) -> np.ndarray:
    """Lifted windings for windows ws, shape (len(ws), N); c is one scale
    vector, or one row per window.

    Row k is the winding of window ws[k]: u_1 = 1 and
    u_{i+1} = -(a[i][0] + sum_{1 <= j <= i} a[i][j] u_j), evaluated for all
    rows at once, in int64 where _exact's bound shows it cannot wrap and
    otherwise on exact Python integers, so callers see the true entries,
    however large.
    """
    a = _window_floors(target, c, ws)
    a = _exact(a, np.abs(a))
    m = target.dim
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


_SCAN_BLOCK = 256  # windows per block of the window search
_BOUND_CHUNK = 2048  # most block range bounds the search evaluates in one array pass
_WAVE = 4096  # most windows whose windings one wave of the search computes
_SKIP_MARGIN = 1e-9  # relative slack for rounding in the per-window norm


def _range_norm2_floor(target, c_scaled, c, lo, hi):
    """Lower bound on the scan's ||u_hat||^2 for every window in [lo[k], hi[k]].

    lo and hi are arrays of ranges, with one row of c_scaled and c per
    range; the bound has one entry per range.  Each floor a[i][j](w)
    is monotone in w (float rounding is monotone, so the computed floors
    are too), so over the range it lies between its values at lo and hi.
    The winding recursion run once on those intervals, in integers (exact
    by _exact's bound), gives an interval for each u_i, and |u_i| is at
    least the smaller end's magnitude (0 for an interval that contains 0).
    The bound is shrunk by _SKIP_MARGIN to cover the float rounding of the
    per-window norm.
    """
    f_lo = _window_floors(target, c_scaled, lo)
    f_hi = _window_floors(target, c_scaled, hi)
    a_lo, a_hi = _exact(
        np.stack([np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)]),
        np.maximum(np.abs(f_lo), np.abs(f_hi)),
    )
    one = np.ones(len(f_lo), dtype=a_lo.dtype)
    box = [(one, one)]
    for i in range(target.dim):
        low, high = a_lo[:, i, 0], a_hi[:, i, 0]
        for j in range(1, i + 1):
            ends = [f * u for f in (a_lo[:, i, j], a_hi[:, i, j]) for u in box[j]]
            low = low + np.minimum.reduce(ends)
            high = high + np.maximum.reduce(ends)
        box.append((-high, -low))
    norm2 = 0.0
    for j, (low, high) in enumerate(box):
        gap = np.minimum(np.abs(low), np.abs(high)).astype(float)
        term = np.float_power(c[..., j] * gap, 2.0)
        norm2 = norm2 + np.where((low > 0) | (high < 0), term, 0.0)
    return norm2 / (1.0 + _SKIP_MARGIN) ** 2


_CERT_MARGIN = 1e-9  # relative slack below r_min for a line vector to reject a window
# rank m -> the z in {-1, 0, 1}^m whose first nonzero entry is 1: one of each +-z
_SIGNS = {
    m: np.array([z for z in product((0, 1, -1), repeat=m) if next((x for x in z if x), 0) == 1])
    for m in _TARGETS
}


def _line_vector(a, z) -> list[int]:
    """The integer n with n_0 = 0 and K n = z, where K has the lifting rows
    k_i = (a[i][0], ..., a[i][i], 1, 0, ..., 0) of one window's floors a.

    The window's winding solves the same recursion with u_0 = 1 and K u = 0.
    [e_0; K] is unit lower triangular, so u and the n of z = e_1, ..., e_m
    form a basis of Z^N, and their P(c*n), P the projection orthogonal to
    u_hat, a basis of the curve's line lattice.
    """
    n = [0]
    for i, zi in enumerate(z):
        n.append(int(zi) - sum(int(a[i][j]) * n[j] for j in range(1, i + 1)))
    return n


def _screen_line_vectors(a, c: np.ndarray, bound2):
    """For windows with floors a (shape (B, m, m)): the z among _SIGNS[m]
    whose line vector P(c*n(z)) is shortest, and whether its float norm^2 is
    below bound2.  c and bound2 are one torus's, or one row per window.

    The rows k_i / c lie in the hyperplane orthogonal to u_hat, and
    <k_i / c, P(c*n_j)> = (K n_j)_i = delta_ij, so the P(c*n_j) are their
    dual basis there, with Gram matrix the inverse of theirs.  Their Gram
    matrix is close to w^2 times the target's dual Gram, so it is well
    conditioned and inverts accurately in float64, whereas c*n_j itself is
    far longer than its projection and would lose the projection to
    cancellation.
    """
    m = a.shape[1]
    signs = _SIGNS[m]
    k = np.zeros((a.shape[0], m, m + 1))
    k[:, :, :m] = a
    k[:, np.arange(m), np.arange(1, m + 1)] = 1.0
    k /= c[..., None, :]
    gram = np.linalg.inv(k @ k.transpose(0, 2, 1))
    norm2 = np.einsum("qi,bij,qj->bq", signs, gram, signs)
    best = norm2.argmin(axis=1)
    return signs[best], norm2[np.arange(a.shape[0]), best] < bound2


def _shorter_than(a: list, u: list, n: list, bound: tuple[int, int]) -> bool:
    """Whether ||P(c*n)||^2 < p / q for bound = (p, q), in exact integers,
    P the projection orthogonal to c*u and a = c times a common integer
    scale that p / q carries too."""
    au = [ai * ui for ai, ui in zip(a, u)]
    an = [ai * ni for ai, ni in zip(a, n)]
    d = sum(x * x for x in au)
    t = sum(x * y for x, y in zip(an, au))
    p, q = bound
    return (sum(x * x for x in an) * d - t * t) * q < p * d


def search_best_w(
    torus: TorusSpec,
    r_min: float,
    w_max: int = 10_000,
) -> tuple[int, CurveSpec] | None:
    """Largest window w <= w_max whose lifted curve keeps spacing >= r_min.

    The lifting aims at the densest lattice of rank m = torus.dim - 1, the
    target of the _TARGETS row for m; a rank with no row raises ValueError.
    Spacing is not provably monotone in w, so the search takes the windows
    in descending w and returns the first hit, which is exactly the largest
    feasible w.  A norm bound prunes hopeless w without a shortest-vector
    computation: a rank-m lattice of covolume V = prod(c) / ||u_hat|| has
    shortest vector at most sqrt(g_m) * V^(1/m) with g_m the Hermite
    constant of the row, so any w with g_m^(m/2) * V < r_min^m is skipped.

    The windows are cut into blocks of _SCAN_BLOCK from w_max down.  A
    block whose interval bound on ||u_hat|| (_range_norm2_floor) shows that
    the prune fires on every one of its windows is dropped before any of
    its windings is computed; the windings and the prune of a surviving
    block are array operations.

    A surviving window is rejected without its exact spacing when a short
    line vector proves it infeasible.  Its lifting rows K (K u = 0) give
    integer n(z) with K n(z) = z (_line_vector), and the P(c*n(e_j)) are a
    basis of its line lattice, close to the scaled target.  For each window,
    the shortest P(c*n(z)) over z in {-1, 0, 1}^m (one of each +-z) is
    found in float64 for the wave at once (_screen_line_vectors), whatever
    the dtype of its windings (the floors are float64 either way), and
    confirmed in exact integers to be shorter than r_min*(1 - _CERT_MARGIN)
    (_shorter_than); then the true spacing is below r_min too.  The exact
    line spacing is computed only for the windows left, in descending w,
    until the first hit.  A dropped or certified window could never be a
    hit, so the result is the one of a scan of every window.  Memory does
    not depend on w_max.

    Returns None when no w in [1, w_max] is feasible.  This is
    _search_layers on one torus; design_scheme runs that on all the layers
    of a codebook at once.
    """
    return _search_layers([torus], [r_min], w_max)[0]


def _search_layers(tori, r_mins, w_max: int) -> list:
    """search_best_w(tori[k], r_mins[k], w_max) for every k, for tori of one
    dimension, as array passes over all of them at once.

    Each torus that has no surviving block queued gets the range bounds of
    its next blocks, from the top down, _BOUND_CHUNK blocks in all per
    pass.  Then a wave takes the next surviving block of as many tori
    without a hit as fit in _WAVE windows (at least one), and computes
    their windings, the prune and the line-vector screen as one array
    pass.  Per torus, in descending w, it runs the exact steps up to the
    first hit: the overflow check, the certificate, the exact spacing and
    the ball bounds.  Each float entry is computed as a search of that
    torus alone computes it, so every result is the one search_best_w
    gives.  Memory is set by _BOUND_CHUNK and _WAVE, not by w_max or the
    number of tori.
    """
    if not all(r_min > 0.0 for r_min in r_mins):  # NaN included
        raise ValueError("r_min must be positive")
    if not (_is_int(w_max) and w_max >= 1):
        raise ValueError(f"w_max must be an integer >= 1, got {w_max!r}")
    found = [None] * len(tori)
    if not tori:
        return found
    m = tori[0].dim - 1
    target = default_target(m + 1)
    hermite = _TARGETS[m][1] ** (m / 2.0)
    c = np.array([torus.c for torus in tori])
    c_scaled = c / c[:, :1]
    prod_c = np.array([float(np.prod(torus.c)) for torus in tori])
    r_pow = np.array([r_min**m for r_min in r_mins])
    cert = [r_min * (1.0 - _CERT_MARGIN) for r_min in r_mins]
    cert2 = np.array([x**2 for x in cert])
    # per torus (a_int, (p, q)): c = a_int / den exactly, and cert^2 * den^2 = p / q
    certs = []
    for torus, x in zip(tori, cert):
        a_int, den = _integer_scale(torus.c)
        p, q = x.as_integer_ratio()
        certs.append((a_int, ((p * den) ** 2, q**2)))

    def pruned(norm2, rows):
        # spacing provably below r_min where the bound fails
        return hermite * (prod_c[rows] / np.sqrt(norm2)) < r_pow[rows]

    block = _SCAN_BLOCK
    tops = np.full(len(tori), int(w_max))  # top window of each torus's next unbounded block
    queues = [deque() for _ in tori]  # surviving (lo, hi) blocks, top down
    todo = list(range(len(tori)))  # tori without a hit that have windows left
    while todo:
        while True:
            need = np.array([k for k in todo if not queues[k] and tops[k]], dtype=np.intp)
            if not need.size:
                break
            # the next blocks of each torus in need, top down, _BOUND_CHUNK in all
            counts = np.minimum(max(1, _BOUND_CHUNK // need.size), -(-tops[need] // block))
            rows = np.repeat(need, counts)
            below = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
            his = tops[rows] - block * below
            los = np.maximum(his - block + 1, 1)
            tops[need] = np.maximum(tops[need] - block * counts, 0)
            bound = _range_norm2_floor(target, c_scaled[rows], c[rows], los, his)
            alive = np.flatnonzero(~pruned(bound, rows))
            for k, lo, hi in zip(rows[alive].tolist(), los[alive].tolist(), his[alive].tolist()):
                queues[k].append((lo, hi))
        todo = [k for k in todo if queues[k]]  # the others have no feasible window
        if not todo:
            break
        wave, size = [], 0
        for k in todo:
            lo, hi = queues[k][0]
            if wave and size + hi - lo + 1 > _WAVE:
                break
            wave.append(k)
            size += hi - lo + 1
        spans = [queues[k].popleft() for k in wave]
        ws = np.concatenate([np.arange(hi, lo - 1, -1) for lo, hi in spans])
        rows = np.repeat(wave, [hi - lo + 1 for lo, hi in spans])
        us = _lifting_windings(target, c_scaled[rows], ws)
        # ||u_hat||^2 summed term by term in index order; Python's x**2 is
        # libm pow, which float_power calls too (x*x can differ in the last
        # bit)
        uf = us.astype(float)
        norm2 = np.float_power(c[rows, 0] * uf[:, 0], 2.0)
        for i in range(1, m + 1):
            norm2 = norm2 + np.float_power(c[rows, i] * uf[:, i], 2.0)
        keep = np.flatnonzero(~pruned(norm2, rows))
        if keep.size:
            floors = _window_floors(target, c_scaled[rows[keep]], ws[keep])
            zs, screened = _screen_line_vectors(floors, c[rows[keep]], cert2[rows[keep]])
        else:
            screened = np.zeros(keep.size, dtype=bool)
        for i, k in enumerate(keep.tolist()):
            t = rows[k]
            if found[t] is not None:
                continue  # this torus already has its hit, at a larger w
            u = _checked_winding(us[k])
            a_int, cert_bound = certs[t]
            if screened[i] and _shorter_than(
                a_int, u.tolist(), _line_vector(floors[i].tolist(), zs[i].tolist()), cert_bound
            ):
                continue  # a line vector of the window proves its spacing < r_min
            cs = CurveSpec(tori[t], u)
            if cs.spacing >= r_mins[t]:
                try:
                    cs.ball_lower
                except OutOfRangeError:
                    continue  # spacing beyond the ball-bound window; try smaller w
                found[t] = (int(ws[k]), cs)
        todo = [k for k in todo if found[k] is None]
    return found
