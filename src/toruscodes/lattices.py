"""Low-rank lattice tools: duals, projections, exact shortest and closest
vectors by one Schnorr-Euchner enumerator.

Bases are row matrices: each row is one generator, embedded in an ambient
space of dimension >= rank.  Everything here targets desk-scale ranks
(<= 8), where exact enumeration is affordable and serves as an oracle.
"""

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "LatticeBasis",
    "ShortestVectorResult",
    "DegenerateBasisError",
    "InvalidDirectionError",
    "PrimitivityError",
    "UnsupportedRankError",
    "gram",
    "dual_basis",
    "project_orthogonal",
    "projection_lattice_basis",
    "shortest_vector",
    "packing_density",
    "unit_ball_volume",
]


class DegenerateBasisError(ValueError):
    """Rows are (numerically) linearly dependent."""


class InvalidDirectionError(ValueError):
    """A direction vector is zero where a nonzero one is required."""


class PrimitivityError(ValueError):
    """An integer vector fails the gcd == 1 requirement."""


class UnsupportedRankError(ValueError):
    """Rank exceeds the desk-scale guard of this module."""


_MAX_RANK = 8


class LatticeBasis:
    """An immutable row basis of a full-rank-in-span lattice."""

    def __init__(self, rows):
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must form a 2-d matrix")
        m, d = rows.shape
        if m < 1 or m > d:
            raise ValueError(f"need 1 <= rank <= ambient dimension, got {m}x{d}")
        g = rows @ rows.T
        hadamard = float(np.prod(np.einsum("ij,ij->i", rows, rows)))
        if hadamard <= 0.0 or np.linalg.det(g) <= 1e-12 * hadamard:
            raise DegenerateBasisError("rows are not linearly independent")
        rows.flags.writeable = False
        self._rows = rows

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def rank(self) -> int:
        return self._rows.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def gram(self) -> np.ndarray:
        return self._rows @ self._rows.T

    def det(self) -> float:
        """Covolume: sqrt of the Gram determinant."""
        return float(math.sqrt(np.linalg.det(self.gram())))

    def __repr__(self):
        return f"LatticeBasis(rank={self.rank}, dim={self.dim})"

    def to_json(self) -> str:
        return json.dumps({"rows": self._rows.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "LatticeBasis":
        return cls(json.loads(text)["rows"])


@dataclass(frozen=True, eq=False)
class ShortestVectorResult:
    vector: np.ndarray
    norm: float
    coefficients: np.ndarray


def gram(basis: LatticeBasis) -> np.ndarray:
    """Gram matrix of the basis rows."""
    return basis.gram()


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Dual basis inside the span: pairing with the input rows is identity."""
    g = basis.gram()
    try:
        dual_rows = np.linalg.solve(g, basis.rows)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError("Gram matrix is singular") from exc
    return LatticeBasis(dual_rows)


def project_orthogonal(n_hat, u_hat) -> np.ndarray:
    """Orthogonal projection of n_hat onto the hyperplane orthogonal to u_hat."""
    n_hat = np.asarray(n_hat, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    uu = float(u_hat @ u_hat)
    if uu <= 0.0:
        raise InvalidDirectionError("projection direction must be nonzero")
    return n_hat - (n_hat @ u_hat)[..., None] * u_hat / uu if n_hat.ndim > 1 \
        else n_hat - (float(n_hat @ u_hat) / uu) * u_hat


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _int_det(mat: list[list[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _kernel_and_bezout(u) -> tuple[list[list[int]], list[int]]:
    """Integer row basis of {m in Z^N : <m, u> = 0} and Bezout coefficients
    s with <s, u> = 1, for primitive u.

    Both come from one Bezout chain over the coordinates; the kernel lattice
    has squared covolume ||u||^2 exactly, asserted as a self-check.
    """
    u = [int(x) for x in u]
    n = len(u)
    rows = []
    g_prev = u[0]
    s_prev = [0] * n
    s_prev[0] = 1
    for i in range(1, n):
        if g_prev == 0 and u[i] == 0:
            # all coordinates seen so far vanish: the axis itself is in the kernel
            row = [0] * n
            row[i] = 1
            rows.append(row)
            continue
        g_new, x, y = _xgcd(g_prev, u[i])
        row = [(u[i] // g_new) * sj for sj in s_prev]
        row[i] -= g_prev // g_new
        rows.append(row)
        s_prev = [x * sj for sj in s_prev]
        s_prev[i] += y
        g_prev = g_new
    gram_int = [[sum(a * b for a, b in zip(r1, r2)) for r2 in rows] for r1 in rows]
    uu = sum(x * x for x in u)
    # the section Z^N intersect u-perp has covolume ||u|| for primitive u
    assert _int_det(gram_int) == uu, "kernel basis covolume check failed"
    assert sum(a * b for a, b in zip(s_prev, u)) == 1, "Bezout chain check failed"
    return rows, s_prev


def _integer_kernel_basis(u) -> list[list[int]]:
    """Integer row basis of {m in Z^N : <m, u> = 0} for primitive u."""
    return _kernel_and_bezout(u)[0]


def _reduce_rows_int(rows: list[list[int]], metric: np.ndarray) -> np.ndarray:
    """LLL-style reduction of integer rows k under the linear map k -> k @ metric.

    Only used to condition bases before floating-point work; all updates are
    integer row operations, so the generated lattice is unchanged.  Input
    rows are exact Python integers; the reduced rows are small enough for
    int64.
    """
    k = np.array(rows, dtype=object)
    m = k.shape[0]

    def fl(rows):
        return np.array([[float(x) for x in row] for row in rows]) @ metric

    changed = True
    guard = 0
    while changed and guard < 1000:
        changed = False
        guard += 1
        b = fl(k)
        # size-reduce then check Lovasz swaps on consecutive rows
        for i in range(1, m):
            for j in range(i - 1, -1, -1):
                denom = float(b[j] @ b[j])
                mu = round(float(b[i] @ b[j]) / denom)
                if mu != 0:
                    k[i] = k[i] - mu * k[j]
                    b = fl(k)
                    changed = True
        b = fl(k)
        # Gram-Schmidt norms for the Lovasz condition (delta = 0.75)
        bs = b.astype(float).copy()
        for i in range(m):
            for j in range(i):
                denom = float(bs[j] @ bs[j])
                bs[i] = bs[i] - (float(b[i] @ bs[j]) / denom) * bs[j]
        for i in range(m - 1):
            denom = float(bs[i] @ bs[i])
            mu = float(b[i + 1] @ bs[i]) / denom
            lhs = float(bs[i + 1] @ bs[i + 1]) + mu * mu * denom
            if lhs < 0.75 * denom:
                k[[i, i + 1]] = k[[i + 1, i]]
                changed = True
                break
    return np.array([[int(x) for x in row] for row in k], dtype=np.int64)


def projection_lattice_basis(c, u) -> LatticeBasis:
    """Basis of the projection of the rectangular lattice diag(c)*Z^N onto
    the hyperplane orthogonal to u_hat = (c_1 u_1, ..., c_N u_N).

    u must be a primitive integer vector (gcd of entries 1); then the
    projection is itself a rank-(N-1) lattice.  The construction goes through
    the dual route: the dual of the projection is the section of the dual
    lattice by the hyperplane, whose integer coordinates are the kernel of u;
    dualizing back inside the hyperplane gives the projection.  Rows are
    returned embedded in R^N, each orthogonal to u_hat, and satisfy
    det(projection) * ||u_hat|| = prod(c_i).

    The kernel rows are size-reduced before the floating-point dualization so
    the returned basis stays well conditioned even for large windings.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not np.all(c > 0.0):
        raise ValueError("c must have strictly positive entries")
    u = np.asarray(u)
    if u.shape != c.shape:
        raise ValueError("u and c must have the same length")
    if not np.all(u == np.round(u)):
        raise PrimitivityError("u must have integer entries")
    u = np.array([int(x) for x in np.round(u)], dtype=np.int64)
    if not np.any(u):
        raise InvalidDirectionError("u must be nonzero")
    g = 0
    for x in u:
        g = math.gcd(g, int(abs(x)))
    if g != 1:
        raise PrimitivityError(f"u must be primitive (gcd 1), got gcd {g}")
    if c.size < 2:
        raise ValueError("need ambient dimension >= 2")

    kernel = _integer_kernel_basis(u)
    kernel = _reduce_rows_int(kernel, np.diag(1.0 / c))
    dual_rows = kernel / c  # section of the dual lattice inside u_hat^perp
    gdual = dual_rows @ dual_rows.T
    primal_rows = np.linalg.solve(gdual, dual_rows)

    u_hat = c * u
    resid = float(np.max(np.abs(primal_rows @ u_hat)))
    scale = float(np.max(np.abs(primal_rows))) * float(np.linalg.norm(u_hat))
    assert resid <= 1e-9 * max(scale, 1.0), "projection rows not orthogonal to u_hat"
    return LatticeBasis(primal_rows)


def _line_lattice(c, u) -> tuple[np.ndarray, np.ndarray]:
    """Reduced basis of the lattice of lines {2*pi*(u_hat*x + c*n)}, n in Z^N.

    With Bezout coefficients s of u (<s, u> = 1), Z^N = Z*u + ker(s), and
    the rows n of ker(s) index the lines one to one.  Line n lies at the
    projection of 2*pi*c*n onto the hyperplane orthogonal to u_hat, so these
    projections generate the same lattice as 2*pi*projection_lattice_basis.
    Returns (kernel, basis): reduced integer rows (N-1, N) and their float
    projections (N-1, N), row for row.
    """
    c = np.asarray(c, dtype=float)
    u_hat = c * np.asarray(u, dtype=float)
    _, s = _kernel_and_bezout(u)
    proj = np.eye(c.size) - np.outer(u_hat, u_hat) / float(u_hat @ u_hat)
    to_line = (2.0 * math.pi * c)[:, None] * proj  # n -> P(2*pi*c*n)
    kernel = _reduce_rows_int(_integer_kernel_basis(s), to_line)
    return kernel, kernel @ to_line


def _gram_schmidt(rows):
    m = rows.shape[0]
    bs = rows.astype(float).copy()
    mu = np.zeros((m, m))
    norms2 = np.zeros(m)
    for i in range(m):
        for j in range(i):
            mu[i, j] = float(rows[i] @ bs[j]) / norms2[j]
            bs[i] -= mu[i, j] * bs[j]
        norms2[i] = float(bs[i] @ bs[i])
        if norms2[i] <= 0.0:
            raise DegenerateBasisError("Gram-Schmidt found a dependent row")
    return mu, norms2


def _enumerate(mu, norms2, target, bound2: float, leaf, node_cap: int = 10_000_000) -> int:
    """Schnorr-Euchner enumeration of the integer coefficient vectors z whose
    lattice point z @ rows lies within sqrt(bound2) of the point target @ rows.

    mu and norms2 are the Gram-Schmidt data of the rows (nested lists, as
    from _gram_schmidt); target holds real coefficients (zeros for a
    shortest-vector search).  Each level visits its coefficients in order of
    distance from its projected centre, so a level stops at the first one
    outside the bound.  leaf(z, dist2) sees every point inside the current
    bound and returns the bound to go on with; z is reused, so copy it.
    Returns the number of nodes visited.
    """
    m = len(norms2)
    z = [0] * m
    nodes = 0

    def visit(i: int, partial: float):
        nonlocal bound2, nodes
        center = target[i] - sum(mu[j][i] * (z[j] - target[j]) for j in range(i + 1, m))
        zi = round(center)
        # zig-zag around the centre: zi, zi + s, zi - s, zi + 2s, ...
        sign = 1 if center >= zi else -1
        k = 0
        while True:
            step = zi - center
            dist2 = partial + norms2[i] * step * step
            if dist2 > bound2:
                break
            nodes += 1
            if nodes > node_cap:
                raise RuntimeError("enumeration node cap exceeded; basis too skew")
            z[i] = zi
            if i == 0:
                bound2 = leaf(z, dist2)
            else:
                visit(i - 1, dist2)
            k += 1
            zi += sign * k
            sign = -sign
        z[i] = 0

    visit(m - 1, 0.0)
    return nodes


def _closest_in_ball(mu, norms2, target, bound2: float):
    """Closest lattice point to target (real coefficients) among those within
    squared distance bound2, by _enumerate with a shrinking bound.

    Returns (coefficients or None when the ball holds no lattice point,
    squared distance, nodes visited).
    """
    best = [None, bound2]

    def leaf(z, dist2):
        best[0], best[1] = tuple(z), dist2
        return dist2

    nodes = _enumerate(mu, norms2, target, bound2, leaf)
    return best[0], best[1], nodes


def shortest_vector(basis: LatticeBasis, _node_cap: int = 10_000_000) -> ShortestVectorResult:
    """Globally shortest nonzero lattice vector by exhaustive enumeration.

    Enumerates integer coefficient vectors inside the ball of radius equal to
    the shortest basis row, pruning with Gram-Schmidt partial norms.  Exact
    for rank <= 8.  Ties (within 1e-12 relative) are broken by flipping signs
    so the first nonzero coefficient is positive, then taking the
    lexicographically smallest coefficient vector.
    """
    if basis.rank > _MAX_RANK:
        raise UnsupportedRankError(f"rank {basis.rank} exceeds guard {_MAX_RANK}")
    rows = basis.rows
    m = basis.rank
    mu, norms2 = _gram_schmidt(rows)
    row_norms2 = np.einsum("ij,ij->i", rows, rows)
    best2 = float(row_norms2.min()) * (1.0 + 1e-12)
    candidates: list[tuple[int, ...]] = []

    def leaf(z, partial: float) -> float:
        nonlocal best2, candidates
        if partial > 0.0 and any(z):
            if partial < best2 * (1.0 - 1e-12):
                best2 = partial
                candidates = [tuple(z)]
            elif partial <= best2 * (1.0 + 1e-12):
                candidates.append(tuple(z))
        return best2 * (1.0 + 1e-12)

    _enumerate(mu.tolist(), norms2.tolist(), [0.0] * m, best2 * (1.0 + 1e-12), leaf, _node_cap)
    if not candidates:
        raise DegenerateBasisError("no nonzero vector found (degenerate basis)")

    def canonical(coeffs):
        for v in coeffs:
            if v != 0:
                return coeffs if v > 0 else tuple(-w for w in coeffs)
        return coeffs

    # re-measure candidates and keep true ties only
    uniq = {canonical(cand) for cand in candidates}
    measured = []
    for cand in uniq:
        vec = np.asarray(cand, dtype=float) @ rows
        measured.append((float(vec @ vec), cand, vec))
    n2min = min(t[0] for t in measured)
    tied = [t for t in measured if t[0] <= n2min * (1.0 + 1e-12)]
    tied.sort(key=lambda t: t[1])
    _, coeffs, vec = tied[0]
    return ShortestVectorResult(
        vector=vec,
        norm=float(np.linalg.norm(vec)),
        coefficients=np.asarray(coeffs, dtype=np.int64),
    )


def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional Euclidean unit ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def packing_density(basis: LatticeBasis) -> float:
    """Sphere packing density of the lattice: V_n (lambda/2)^n / covolume."""
    lam = shortest_vector(basis).norm
    n = basis.rank
    return unit_ball_volume(n) * (lam / 2.0) ** n / basis.det()


def brute_force_shortest(basis: LatticeBasis, coeff_range: int = 10) -> ShortestVectorResult:
    """Oracle twin of shortest_vector: scan all coefficients in a cube.

    Only valid when the true shortest vector has coefficients within the
    cube; intended for cross-checks at tiny rank.
    """
    rows = basis.rows
    m = basis.rank
    best = None
    for coeffs in product(range(-coeff_range, coeff_range + 1), repeat=m):
        if not any(coeffs):
            continue
        vec = np.asarray(coeffs, dtype=float) @ rows
        n2 = float(vec @ vec)
        if best is None or n2 < best[0] * (1.0 - 1e-15):
            best = (n2, coeffs, vec)
    assert best is not None
    return ShortestVectorResult(
        vector=best[2],
        norm=float(math.sqrt(best[0])),
        coefficients=np.asarray(best[1], dtype=np.int64),
    )
