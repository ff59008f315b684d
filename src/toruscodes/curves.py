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
the largest window w whose curve keeps a spacing target: it computes the
windings of a whole block of windows at once as integer arrays, drops the
windows a Hermite bound rules out, and runs the exact shortest-vector
spacing only on the survivors, block after block of descending w, until
the first hit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattices import (
    LatticeBasis,
    PrimitivityError,
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


def _vec_gcd(u) -> int:
    g = 0
    for x in u:
        g = math.gcd(g, int(abs(x)))
    return g


def _normalize_sign(u: np.ndarray) -> np.ndarray:
    for x in u:
        if x != 0:
            return u if x > 0 else -u
    return u


def _as_winding(u) -> np.ndarray:
    u = np.asarray(u)
    if not np.all(u == np.round(u)):
        raise PrimitivityError("winding vector must be integer")
    u = np.round(u).astype(np.int64)
    if not np.any(u):
        raise PrimitivityError("winding vector must be nonzero")
    if _vec_gcd(u) != 1:
        raise PrimitivityError("winding vector must be primitive (gcd 1)")
    return _normalize_sign(u)


@dataclass(frozen=True, eq=False)
class CurveSpec:
    """A closed winding curve on a torus plus its derived design quantities.

    spacing is the line spacing r of the box pre-image; ball_lower/ball_upper
    bracket the small-ball radius (the largest non-self-intersecting tube
    radius around the curve, measured as chord length in the ambient space).
    """

    torus: TorusSpec
    u: np.ndarray
    u_hat: np.ndarray
    length: float
    spacing: float
    ball_lower: float
    ball_upper: float

    def __post_init__(self):
        u = _as_winding(self.u)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        # sign normalization above may flip u, so derive u_hat from it
        u_hat = self.torus.c * u
        u_hat.flags.writeable = False
        object.__setattr__(self, "u_hat", u_hat)
        if abs(self.length - _TWO_PI * float(np.linalg.norm(u_hat))) > 1e-12 * self.length:
            raise ValueError("length must equal 2*pi*||u_hat||")
        if not (0.0 < self.ball_lower <= self.ball_upper <= 2.0):
            raise ValueError("ball bounds must satisfy 0 < lower <= upper <= 2")

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
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
        torus = TorusSpec(np.asarray(d["c"], dtype=float))
        u = np.asarray(d["u"], dtype=np.int64)
        return cls(
            torus=torus,
            u=u,
            u_hat=torus.c * u,
            length=float(d["length"]),
            spacing=float(d["spacing"]),
            ball_lower=float(d["ball_lower"]),
            ball_upper=float(d["ball_upper"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "CurveSpec":
        return cls.from_dict(json.loads(text))


def make_curve(torus: TorusSpec, u) -> CurveSpec:
    """Build a CurveSpec for winding u, computing spacing and ball bounds."""
    u = _as_winding(u)
    return _curve_with_spacing(torus, u, line_spacing(torus, u))


def _curve_with_spacing(torus: TorusSpec, u: np.ndarray, r: float) -> CurveSpec:
    """make_curve for a primitive, sign-normalized winding of known spacing r."""
    u_hat = torus.c * u
    lower, upper = small_ball_bounds(torus, r)
    return CurveSpec(
        torus=torus,
        u=u,
        u_hat=u_hat,
        length=_TWO_PI * float(np.linalg.norm(u_hat)),
        spacing=r,
        ball_lower=lower,
        ball_upper=upper,
    )


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


def exact_small_ball_2d(torus: TorusSpec, u) -> float:
    """Exact small-ball radius for a 2-d torus curve.

    In 2-d the nearest parallel line of the box pre-image sits at flat
    distance 2*pi*r across the direction perpendicular to u_hat, so the tube
    radius is attained at the flat half-gap: the chord distance between the
    curve and the point displaced by pi*r in the perpendicular direction.
    """
    if torus.dim != 2:
        raise ValueError("exact formula only applies to 2-d tori")
    u = _as_winding(u)
    u_hat = torus.c * u
    r = line_spacing(torus, u)
    perp = np.array([-u_hat[1], u_hat[0]]) / float(np.linalg.norm(u_hat))
    return float(intra_torus_distance(torus, math.pi * r * perp, np.zeros(2)))


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


def default_target(n: int) -> TargetLattice:
    """Densest built-in target for curves on an n-dimensional torus."""
    if n == 2:
        return integer_target()
    if n == 3:
        return hexagonal_target()
    if n == 4:
        return fcc_target()
    raise ValueError(f"no built-in target lattice for torus dimension {n}")


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
_OVERFLOW = 2**62


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
    if _vec_gcd(out) != 1:
        raise ConstructionViolatedError("lifting produced a non-primitive winding")
    return out


_HERMITE = {1: 1.0, 2: 2.0 / math.sqrt(3.0), 3: 2.0 ** (1.0 / 3.0)}
_SCAN_BLOCK = 4096  # windows per block of search_best_w


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

    The scan runs in blocks of _SCAN_BLOCK windows of descending w: the
    windings and the prune of a whole block are array operations, and the
    exact line spacing is computed only for the windows that survive, in
    descending w, until the first hit.  Memory does not depend on w_max.

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
    gamma = _HERMITE.get(m)
    prod_c = float(np.prod(c))
    for top in range(int(w_max), 0, -_SCAN_BLOCK):
        ws = np.arange(top, max(top - _SCAN_BLOCK, 0), -1)
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
            det = prod_c / np.sqrt(norm2)
            # spacing provably below r_min where the bound fails
            survivors = np.flatnonzero(~(gamma ** (m / 2.0) * det < r_min**m))
        for k in survivors:
            u = _checked_winding(us[k])
            r = line_spacing(torus, u)
            if r >= r_min:
                try:
                    return int(ws[k]), _curve_with_spacing(torus, u, r)
                except OutOfRangeError:
                    continue  # spacing beyond the ball-bound window; try smaller w
    return None
