"""Low-rank lattice tools: duals, projections, exact shortest and closest
vectors by one Schnorr-Euchner enumerator, fed by one Gram-Schmidt.

A curve's line lattice, the projection of diag(c)*Z^N orthogonal to
u_hat = c*u, is built one way (_line_lattice) for design and decoding.

Bases are row matrices: each row is one generator, embedded in an ambient
space of dimension >= rank.  Everything here targets desk-scale ranks
(<= 8), where exact enumeration is affordable and serves as an oracle.
"""

import math
from dataclasses import dataclass
from itertools import product
from operator import mul

import numpy as np

__all__ = [
    "LatticeBasis",
    "ShortestVectorResult",
    "DegenerateBasisError",
    "InvalidDirectionError",
    "PrimitivityError",
    "UnsupportedRankError",
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
_OVERFLOW = 2**62  # integer vectors hold int64 entries below this in magnitude


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


@dataclass(frozen=True, eq=False)
class ShortestVectorResult:
    vector: np.ndarray
    norm: float
    coefficients: np.ndarray


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Dual basis inside the span: pairing with the input rows is identity."""
    g = basis.gram()
    try:
        dual_rows = np.linalg.solve(g, basis.rows)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError("Gram matrix is singular") from exc
    return LatticeBasis(dual_rows)


def project_orthogonal(n_hat, u_hat) -> np.ndarray:
    """Orthogonal projection of one vector n_hat onto the hyperplane orthogonal to u_hat."""
    n_hat = np.asarray(n_hat, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    uu = float(u_hat @ u_hat)
    if uu <= 0.0:
        raise InvalidDirectionError("projection direction must be nonzero")
    return n_hat - (float(n_hat @ u_hat) / uu) * u_hat


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


def _bezout(u) -> list[int]:
    """Bezout coefficients s with <s, u> = 1 for primitive u, by a chain of
    extended gcds over the coordinates; <s, u> == 1 is asserted."""
    s = [0] * len(u)
    s[0] = 1
    g = u[0]
    for i in range(1, len(u)):
        g, x, y = _xgcd(g, u[i])
        s = [x * sj for sj in s]
        s[i] += y
    assert sum(a * b for a, b in zip(s, u)) == 1, "Bezout chain check failed"
    return s


def _kernel(u) -> list[list[int]]:
    """Integer row basis of {m in Z^N : <m, u> = 0}, for primitive u.

    Each row comes from the step of the Bezout chain (as in _bezout) that
    takes in one more coordinate; the kernel lattice has squared covolume
    ||u||^2 exactly, asserted as a self-check.
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
    return rows


def _lll(rows: list[list[int]], w: list[int]) -> list[list[int]]:
    """Integral LLL (delta = 3/4; Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 2.6.7) of integer rows under the inner product
    <n, n'> = sum(w * n * n'), with row 0 held first: it is never swapped,
    so rows 1.. reduce as their projections orthogonal to row 0, and each
    is size-reduced against row 0 too.  The Gram-Schmidt data are exact
    integers, d[i] (Gram determinant of the first i rows) and lam[k][j]
    (d[j+1] times mu[k][j]), so a basis of any skew reduces without rounding.
    """
    rows = [list(row) for row in rows]
    m = len(rows)
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            x = sum(map(mul, map(mul, w, rows[k]), rows[j]))
            for i in range(j):
                x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = x
            else:
                d[k + 1] = x

    def size_reduce(k: int, j: int):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer
            rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if k > 1 and 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk * lk:  # Lovasz fails
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, m):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
            d[k] = b
            k -= 1
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return rows


def _integer_scale(c) -> tuple[list[int], int]:
    """Integers a and den with c = a / den exactly (den a power of two)."""
    ratios = [x.as_integer_ratio() for x in np.asarray(c, dtype=float).tolist()]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios], den


def _line_lattice(c, u) -> tuple[list[list[int]], np.ndarray]:
    """Reduced basis of the lattice of lines {2*pi*(u_hat*x + c*n)}, n in Z^N,
    of the curve with primitive winding u, u_hat = c*u.

    With Bezout coefficients s of u (<s, u> = 1, _bezout), (u, ker(s)) is a
    basis of Z^N (_kernel of s), and line n lies at P(2*pi*c*n), its
    projection orthogonal to u_hat.
    _lll reduces that basis under n -> c*n with u held first: the rows of
    ker(s) reduce as their projections, and size reduction against u makes
    each the index of its line nearest the hyperplane,
    |<c*n, u_hat>| <= ||u_hat||^2 / 2.  All of it is exact integer
    arithmetic up to the projections: each entry of P(c*n) is the exact
    rational rounded once, and the basis entry is that float times a
    rounded 2*pi, rounded again (the unit-scale rows that the spacing
    reads divide it by 2*pi once more).  Returns (kernel, basis): the
    reduced rows (N-1 lists of N ints) and their projections P(2*pi*c*n)
    (N-1, N), row for row.  The rows are independent, since the reduction
    is unimodular, and carry no further check.  u must be primitive;
    N < 2 raises ValueError.
    """
    u = [int(x) for x in u]
    if len(u) < 2:
        raise ValueError("need ambient dimension >= 2")
    s = _bezout(u)
    # c = a / den exactly, so n -> c*n is n -> a*n scaled, and
    # P(c*n) = a*(d*n - t*u) / (den*d) with the integers d = <a*u, a*u> and
    # t = <a*n, a*u>
    a, den = _integer_scale(c)
    kernel = _lll([u] + _kernel(s), [x * x for x in a])[1:]
    au = [ai * ui for ai, ui in zip(a, u)]
    d = sum(x * x for x in au)
    basis = []
    for n in kernel:
        t = sum(map(mul, map(mul, a, n), au))
        basis.append([ai * (d * ni - ui * t) / (den * d) for ai, ni, ui in zip(a, n, u)])
    return kernel, 2.0 * math.pi * np.array(basis)


def _primitive_entries(u, dim: int, zero_error: type = PrimitivityError) -> list:
    """The dim entries of the winding u as Python ints; raises
    PrimitivityError unless they are numbers (not booleans or strings),
    integers below 2**62 in magnitude and primitive, zero_error if all zero."""
    a = np.asarray(u)
    # a Python int beyond int64 makes an object array, of kind "O"; a bool
    # among numbers is read as 0 or 1, so the entries themselves are looked at
    if a.shape != (dim,) or a.dtype.kind not in "iuf" or any(
        isinstance(x, (bool, np.bool_)) for x in u
    ):
        raise PrimitivityError(f"winding vector must be {dim} integers below 2**62 in magnitude")
    xs = a.tolist()  # a few entries: Python is faster here than numpy
    if not all(-_OVERFLOW < x < _OVERFLOW for x in xs):
        raise PrimitivityError("winding entries must lie below 2**62 in magnitude")
    if not all(x == int(x) for x in xs):
        raise PrimitivityError("winding vector must be integer")
    xs = [int(x) for x in xs]
    g = math.gcd(*xs)
    if g == 0:
        raise zero_error("winding vector must be nonzero")
    if g != 1:
        raise PrimitivityError(f"winding vector must be primitive (gcd 1), got gcd {g}")
    return xs


def _unit_line_rows(c: np.ndarray, u) -> np.ndarray:
    """_line_lattice's basis / (2*pi) for radii c (a checked float vector);
    u must be primitive (InvalidDirectionError if zero), and N >= 2."""
    u = _primitive_entries(u, c.size, zero_error=InvalidDirectionError)
    return _line_lattice(c, u)[1] / (2.0 * math.pi)


def projection_lattice_basis(c, u) -> LatticeBasis:
    """Basis of the projection of the rectangular lattice diag(c)*Z^N onto
    the hyperplane orthogonal to u_hat = (c_1 u_1, ..., c_N u_N).

    u must be a primitive integer vector, taken with its sign; then the
    projection is itself a rank-(N-1) lattice, the lattice of lines of the
    curve with winding u, and its rows come from _line_lattice scaled by
    1/(2*pi).  Rows are returned embedded in R^N, each orthogonal to u_hat,
    and satisfy det(projection) * ||u_hat|| = prod(c_i).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not np.all(c > 0.0):
        raise ValueError("c must have strictly positive entries")
    return LatticeBasis(_unit_line_rows(c, u))


def _gram_schmidt(rows: np.ndarray) -> tuple[tuple, tuple]:
    """Gram-Schmidt (mu, norms2) of independent float rows, as the nested
    tuples _enumerate reads, in Python floats: faster than numpy here."""
    m = rows.shape[0]
    mu = [[0.0] * m for _ in range(m)]
    bs, norms2 = [], []
    for i, row in enumerate(rows.tolist()):
        b = row
        for j in range(i):
            mu[i][j] = x = sum(map(mul, row, bs[j])) / norms2[j]
            b = [p - x * q for p, q in zip(b, bs[j])]
        b2 = sum(map(mul, b, b))
        if b2 <= 0.0:
            raise DegenerateBasisError("Gram-Schmidt found a dependent row")
        bs.append(b)
        norms2.append(b2)
    return tuple(map(tuple, mu)), tuple(norms2)


_NODE_CAP = 10_000_000  # enumeration nodes before a basis counts as too skew


def _enumerate(mu, norms2, target, bound2: float, leaf) -> int:
    """Schnorr-Euchner enumeration of the integer coefficient vectors z whose
    lattice point z @ rows lies within sqrt(bound2) of the point target @ rows.

    mu and norms2 are the Gram-Schmidt data of the rows, as _gram_schmidt
    gives them (nested tuples, read as mu[i][j]); target holds real
    coefficients (zeros for a shortest-vector search).  Each level visits
    its coefficients in order of distance from its projected centre, so a
    level stops at the first one outside the bound.  leaf(z, dist2) sees
    every point inside the current bound and returns the bound to go on
    with; z is reused, so copy it.  Returns the number of nodes visited.
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
            if nodes > _NODE_CAP:
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


def _shortest(rows: np.ndarray, gso: tuple) -> ShortestVectorResult:
    """Globally shortest nonzero vector of the lattice spanned by the
    independent rows (a float array of rank <= 8), by exhaustive enumeration.

    Enumerates integer coefficient vectors inside the ball of radius equal to
    the shortest row, by _enumerate on gso, the rows' _gram_schmidt data
    (mu, norms2), which the caller passes so that a caller that keeps it
    computes it once.  Ties (within 1e-12 relative) are broken by flipping
    signs so the first nonzero coefficient is positive, then taking the
    lexicographically smallest coefficient vector.  The vector is coefficients @ rows, and the
    norm np.linalg.norm of it.
    """
    m = rows.shape[0]
    if m > _MAX_RANK:
        raise UnsupportedRankError(f"rank {m} exceeds guard {_MAX_RANK}")
    mu, norms2 = gso
    best2 = min(sum(map(mul, row, row)) for row in rows.tolist()) * (1.0 + 1e-12)
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

    _enumerate(mu, norms2, [0.0] * m, best2 * (1.0 + 1e-12), leaf)
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


def _spacing_of(rows: np.ndarray) -> tuple[float, tuple]:
    """Line spacing of a curve from its reduced line rows at unit scale
    (_line_lattice's basis / (2*pi)), the norm of their shortest nonzero
    vector, and the rows' _gram_schmidt data that the search ran on.
    CurveSpec's line lattice and curves.line_spacing both read the spacing
    here, so the two give the same bits; the curve keeps the Gram-Schmidt
    data, which the decoder table reads for its closest-vector enumeration,
    so each curve is orthogonalised and searched once."""
    gso = _gram_schmidt(rows)
    return _shortest(rows, gso).norm, gso


def shortest_vector(basis: LatticeBasis) -> ShortestVectorResult:
    """Globally shortest nonzero lattice vector by exhaustive enumeration
    (_shortest of the basis rows).  Exact for rank <= 8; ties are broken by
    sign, then by the lexicographically smallest coefficient vector."""
    return _shortest(basis.rows, _gram_schmidt(basis.rows))


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
