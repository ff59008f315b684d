"""Encoder and two-stage decoder for the multi-curve signal locus.

The unit interval is split into one subinterval per curve, proportionally to
curve length, and each subinterval is mapped affinely onto its curve minus a
seam arc: local parameter t goes to curve parameter g/2 + (1 - g)*t, where
g = guard / length.  The curves are closed, so without that arc the two ends
of a subinterval would meet at one ambient point and a small noise step
across the closure would cost a whole subinterval.  The decoder first
extracts per-pair magnitudes and phases from the received vector, picks the
closest layer from the magnitudes (a linear scan, M*N work), then finds the
closest line of the chosen curve's box pre-image in the wrapped flat metric.
Those lines sit at the points of the curve's rank-(N-1) projection lattice,
so the second stage is a closest-vector search in that lattice: Babai
rounding, a 3**(N-1)-point neighbourhood, and an exact enumeration for the
rare rows the neighbourhood cannot certify.  Its work does not depend on
the curve length ||u||_1.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .curves import CurveSpec, curve_point
from .lattices import LatticeBasis, _closest_in_ball, _gram_schmidt, _line_lattice, shortest_vector
from .torus import TorusSpec, inter_torus_distance

__all__ = [
    "SchemeCode",
    "DecodeResult",
    "OpCounter",
    "AmbiguousPhaseError",
    "UndecodableError",
    "build_scheme",
    "encode",
    "encode_batch",
    "extract_polar",
    "nearest_layer",
    "project_to_torus",
    "decode_on_torus",
    "decode",
    "decode_batch",
    "decode_exhaustive",
    "decode_exhaustive_batch",
]

_TWO_PI = 2.0 * math.pi


class AmbiguousPhaseError(ValueError):
    """A coordinate pair has zero magnitude; its phase is undefined."""


class UndecodableError(ValueError):
    """The received vector carries no usable direction information."""


class OpCounter:
    """Accumulates scalar multiply/divide counts for complexity checks."""

    def __init__(self):
        self.mults = 0

    def add(self, n: int):
        self.mults += int(n)


@dataclass(frozen=True, eq=False)
class SchemeCode:
    """Full encoder state: ordered curves, interval partition, power scale.

    ball_radius is the protection radius of the whole locus: the smallest
    curve small-ball lower bound, capped at half the achieved layer
    separation (a single curve is only protected as far as the neighboring
    layers allow).

    guard is the arc length, on the unit-sphere curve, left unused around
    each curve's closure point so that the two ends of a subinterval lie
    apart; 0 maps each subinterval onto the whole closed curve.
    """

    curves: tuple
    lengths: np.ndarray
    total_length: float
    breakpoints: np.ndarray
    alpha: float
    ball_radius: float
    guard: float = 0.0

    def __post_init__(self):
        for arr in (self.lengths, self.breakpoints):
            arr.flags.writeable = False
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if abs(self.breakpoints[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must end at 1")
        if np.any(np.diff(self.breakpoints) <= 0.0) or self.breakpoints[0] <= 0.0:
            raise ValueError("breakpoints must be strictly increasing")
        if abs(self.total_length - float(self.lengths.sum())) > 1e-9 * self.total_length:
            raise ValueError("total_length must equal the sum of curve lengths")
        if not 0.0 <= self.guard < float(self.lengths.min()):
            raise ValueError("guard must lie in [0, shortest curve length)")

    @property
    def n_layers(self) -> int:
        return len(self.curves)

    @property
    def dim(self) -> int:
        return self.curves[0].torus.dim

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta": self.ball_radius,
            "guard": self.guard,
            "curves": [cs.to_dict() for cs in self.curves],
        }

    @cached_property
    def _layer_radii(self) -> np.ndarray:
        """(M, N) stack of the layers' c-vectors."""
        return np.stack([cs.torus.c for cs in self.curves])

    @cached_property
    def _line_lattices(self) -> "_LineLattices":
        # built on the first decode, not at load: encode-only users and
        # empty decode streams never pay for it.  The build is
        # deterministic, so two threads racing here store equal values.
        return _LineLattices.build(self.curves)

    @classmethod
    def from_dict(cls, d: dict) -> "SchemeCode":
        curves = [CurveSpec.from_dict(item) for item in d["curves"]]
        # files written before the seam guard existed encode on closed curves
        return build_scheme(curves, alpha=float(d["alpha"]), guard=float(d.get("guard", 0.0)))

    @classmethod
    def from_json(cls, text: str) -> "SchemeCode":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class DecodeResult:
    x_hat: float
    layer: int
    undecodable: bool = False
    phase_fallback: bool = False


def build_scheme(curves, alpha: float = 1.0, guard: float = 0.0) -> SchemeCode:
    """Assemble a SchemeCode from curves (one per layer), a power scale and a
    seam guard arc length."""
    curves = tuple(curves)
    if not curves:
        raise ValueError("need at least one curve")
    dim = curves[0].torus.dim
    if any(cs.torus.dim != dim for cs in curves):
        raise ValueError("all curves must live on tori of the same dimension")
    lengths = np.array([cs.length for cs in curves])
    total = float(lengths.sum())
    breakpoints = np.cumsum(lengths) / total
    breakpoints[-1] = 1.0
    sep = math.inf
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            sep = min(sep, inter_torus_distance(curves[i].torus, curves[j].torus))
    ball = min(cs.ball_lower for cs in curves)
    ball = min(ball, sep / 2.0)
    return SchemeCode(
        curves=curves,
        lengths=lengths,
        total_length=total,
        breakpoints=breakpoints,
        alpha=float(alpha),
        ball_radius=float(ball),
        guard=float(guard),
    )


def _interval_lows(scheme: SchemeCode) -> np.ndarray:
    return np.concatenate(([0.0], scheme.breakpoints[:-1]))


def _seam_fractions(scheme: SchemeCode) -> np.ndarray:
    """Per-curve fraction g of the curve parameter taken by the seam arc."""
    return scheme.guard / scheme.lengths


def encode_batch(scheme: SchemeCode, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise ValueError("encoder input must lie in [0, 1)")
    ks = np.searchsorted(scheme.breakpoints, xs, side="right")
    lows = _interval_lows(scheme)
    gs = _seam_fractions(scheme)
    out = np.empty(xs.shape + (2 * scheme.dim,))
    for k in np.unique(ks):
        mask = ks == k
        width = scheme.breakpoints[k] - lows[k]
        local = np.minimum((xs[mask] - lows[k]) / width, np.nextafter(1.0, 0.0))
        out[mask] = curve_point(scheme.curves[k], gs[k] / 2.0 + (1.0 - gs[k]) * local)
    return scheme.alpha * out


def encode(scheme: SchemeCode, x: float) -> np.ndarray:
    """Encode x in [0, 1) to a point of norm alpha in R^(2N)."""
    return encode_batch(scheme, np.array([float(x)]))[0]


def _polar(y):
    """Magnitudes, scaled phases, and the zero-magnitude mask of y."""
    y = np.asarray(y, dtype=float)
    even = y[..., 0::2]
    odd = y[..., 1::2]
    gamma = np.hypot(even, odd)
    ang = np.arctan2(odd, even)
    ang = np.where(ang < 0.0, ang + _TWO_PI, ang)
    zero = gamma == 0.0
    ang = np.where(zero, 0.0, ang)
    return gamma, ang * gamma, zero


def extract_polar(y, strict: bool = True):
    """Per-pair magnitude gamma_i and phase theta_i = angle_i * gamma_i.

    The full two-argument angle is used, so lower-half-plane pairs recover
    phases in (pi*gamma_i, 2*pi*gamma_i).  With strict=True a zero magnitude
    raises; otherwise its phase falls back to 0 and the caller sees the flag
    through the zero magnitude itself.
    """
    gamma, theta, zero = _polar(y)
    if strict and np.any(zero):
        raise AmbiguousPhaseError("zero magnitude pair: phase undefined")
    return gamma, theta


def nearest_layer(scheme: SchemeCode, gamma) -> int:
    """Index of the layer whose c-vector is closest to the direction of gamma."""
    gamma = np.asarray(gamma, dtype=float)
    norm = float(np.linalg.norm(gamma))
    if norm == 0.0:
        raise UndecodableError("zero magnitude vector")
    ghat = gamma / norm
    # layers are unit vectors, so the closest one maximizes the dot product
    return int(np.argmax(scheme._layer_radii @ ghat))


def project_to_torus(layer: TorusSpec, gamma, theta) -> np.ndarray:
    """Nearest point of the torus to y, reconstructed from its polar data."""
    gamma = np.asarray(gamma, dtype=float)
    theta = np.asarray(theta, dtype=float)
    angles = np.where(gamma > 0.0, theta / np.where(gamma > 0.0, gamma, 1.0), 0.0)
    out = np.empty(angles.shape[:-1] + (2 * layer.dim,))
    out[..., 0::2] = layer.c * np.cos(angles)
    out[..., 1::2] = layer.c * np.sin(angles)
    return out


@dataclass(frozen=True, eq=False)
class _LineLattices:
    """Closest-line search data for a list of curves, stacked over curves.

    Curve k's box pre-image is the set of lines {2*pi*(u_hat*x + c*n)}; the
    line n lies at lattice point z @ basis[k] of the hyperplane orthogonal to
    u_hat, with n = z @ kernel[k] (see lattices._line_lattice).  A box point
    p has real coefficients t = p @ coeffs[k] in that basis, so the closest
    line is a closest-vector problem in a rank-(N-1) lattice whose cost does
    not depend on the curve length.
    """

    kernel: np.ndarray  # (M, N-1, N) int64
    gram: np.ndarray  # (M, N-1, N-1)
    coeffs: np.ndarray  # (M, N, N-1): box point -> coefficients of its projection
    periods: np.ndarray  # (M, N): 2*pi*c
    along: np.ndarray  # (M, N): u_hat / (2*pi*||u_hat||^2), box point -> x
    certified2: np.ndarray  # (M,): squared half shortest lattice vector
    offsets: np.ndarray  # (3**(N-1), N-1): the +-1 neighbourhood of a point
    offset2: np.ndarray  # (M, 3**(N-1)): o G o for each offset o
    gso: tuple  # per curve (mu, norms2) lists for the enumeration fallback

    @classmethod
    def build(cls, curves) -> "_LineLattices":
        kernel, gram, coeffs, gso, shortest = [], [], [], [], []
        for cs in curves:
            kern, basis = _line_lattice(cs.torus.c, cs.u)
            g = basis @ basis.T
            kernel.append(kern)
            gram.append(g)
            coeffs.append(np.linalg.solve(g, basis).T)
            mu, norms2 = _gram_schmidt(basis)
            gso.append((mu.tolist(), norms2.tolist()))
            # the line spacing (2*pi-scaled) from the lattice itself, not
            # from cs.spacing, which a scheme file supplies unchecked
            shortest.append(shortest_vector(LatticeBasis(basis)).norm)
        c = np.stack([cs.torus.c for cs in curves])
        u_hat = np.stack([cs.u_hat for cs in curves])
        gram = np.stack(gram)
        offsets = np.array(list(product((-1.0, 0.0, 1.0), repeat=c.shape[1] - 1)))
        return cls(
            kernel=np.stack(kernel),
            gram=gram,
            coeffs=np.stack(coeffs),
            periods=_TWO_PI * c,
            along=u_hat / (_TWO_PI * np.einsum("kn,kn->k", u_hat, u_hat))[:, None],
            # a lattice point closer than half the shortest vector is the
            # unique closest one; the margin absorbs rounding
            certified2=(np.array(shortest) / 2.0) ** 2 * (1.0 - 1e-9),
            offsets=offsets,
            offset2=np.einsum("on,knm,om->ko", offsets, gram, offsets),
            gso=tuple(gso),
        )

    def closest_lines(self, layers: np.ndarray, box: np.ndarray, counter: OpCounter | None = None):
        """Parameter in [0, 1) of the closest line of curve layers[i] to each
        box point box[i] (B, N), in the wrapped flat metric.

        Babai rounding of the coefficients, then the best point of the +-1
        neighbourhood of the rounded point.  A best distance below half the
        line spacing certifies it; other rows run an exact enumeration
        seeded with that distance.
        """
        b, n = box.shape
        offsets = self.offsets
        t = np.einsum("bn,bnm->bm", box, self.coeffs[layers])
        z = np.rint(t)
        f = t - z
        gf = np.einsum("bn,bnm->bm", f, self.gram[layers])
        # squared distance of each neighbour z + o: (f - o) G (f - o)
        dist2 = np.einsum("bn,bn->b", f, gf)[:, None] - 2.0 * gf @ offsets.T
        dist2 += self.offset2[layers]
        best = np.argmin(dist2, axis=1)
        z += offsets[best]
        best2 = dist2[np.arange(b), best]
        nodes = 0
        for i in np.flatnonzero(best2 >= self.certified2[layers]):
            mu, norms2 = self.gso[layers[i]]
            found, _, visited = _closest_in_ball(mu, norms2, t[i].tolist(), best2[i] * (1.0 + 1e-9))
            nodes += visited
            if found is not None:
                z[i] = found
        lines = np.einsum("bm,bmn->bn", z.astype(np.int64), self.kernel[layers])
        resid = box - self.periods[layers] * lines
        xs = np.einsum("bn,bn->b", resid, self.along[layers])
        xs -= np.floor(xs)
        if counter is not None:
            m = n - 1
            # coefficients, G f, f G f, neighbour distances, line index,
            # residual, position along the line
            counter.add(b * (n * m + m * m + m + offsets.shape[0] * (m + 1) + m * n + 2 * n))
            counter.add(nodes * n)  # one partial norm update per enumeration node
        return np.minimum(xs, np.nextafter(1.0, 0.0))


def decode_on_torus(cs: CurveSpec, theta, counter: OpCounter | None = None) -> float:
    """Parameter in [0, 1) of the curve point closest to the box point theta
    in the wrapped flat metric."""
    theta = np.asarray(theta, dtype=float)
    lines = _LineLattices.build([cs])
    return float(lines.closest_lines(np.zeros(1, dtype=np.int64), theta[None, :], counter)[0])


def decode_batch(scheme: SchemeCode, ys, *, counter: OpCounter | None = None):
    """Vectorized two-stage decoding of received vectors (B, 2N).

    Returns (x_hat, layer, undecodable, phase_fallback) arrays.  Undecodable
    rows (all magnitudes zero) decode to 0 with layer -1 and are flagged
    rather than raised, so Monte Carlo runs survive pathological inputs.
    """
    ys = np.asarray(ys, dtype=float)
    expected = 2 * scheme.dim
    if ys.ndim != 2 or ys.shape[1] != expected:
        raise ValueError(f"received vectors must have shape (B, {expected}), got {ys.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("received vectors must be finite")
    b = ys.shape[0]
    gamma, theta, zero = _polar(ys)
    undecodable = np.all(zero, axis=1)
    fallback = np.any(zero, axis=1) & ~undecodable

    cmat = scheme._layer_radii
    norms = np.linalg.norm(gamma, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    dots = (gamma / safe[:, None]) @ cmat.T
    layers = np.argmax(dots, axis=1)
    if counter is not None:
        counter.add(b * (4 * scheme.dim + scheme.n_layers * scheme.dim + scheme.dim))

    x_hat = np.zeros(b)
    rows = np.flatnonzero(~undecodable)
    if rows.size:
        k = layers[rows]
        gr = gamma[rows]
        angles = np.where(gr > 0.0, theta[rows] / np.where(gr > 0.0, gr, 1.0), 0.0)
        box = angles * cmat[k]  # wrapped box coordinates of the phases
        xl = scheme._line_lattices.closest_lines(k, box, counter)
        # invert the seam map; a point on the seam arc goes to the nearer end
        g = _seam_fractions(scheme)[k]
        local = np.clip((xl - g / 2.0) / (1.0 - g), 0.0, np.nextafter(1.0, 0.0))
        lows = _interval_lows(scheme)[k]
        x_hat[rows] = lows + local * (scheme.breakpoints[k] - lows)
        if counter is not None:
            counter.add(rows.size * (scheme.dim + 1))
    x_hat = np.minimum(x_hat, np.nextafter(1.0, 0.0))
    layers = np.where(undecodable, -1, layers)
    return x_hat, layers, undecodable, fallback


def decode(scheme: SchemeCode, y, counter: OpCounter | None = None) -> DecodeResult:
    """Two-stage decoding of a single received vector."""
    y = np.asarray(y, dtype=float)
    x_hat, layers, undec, fb = decode_batch(scheme, y[None, :], counter=counter)
    return DecodeResult(
        x_hat=float(x_hat[0]),
        layer=int(layers[0]),
        undecodable=bool(undec[0]),
        phase_fallback=bool(fb[0]),
    )


def _grid_points(grid: int) -> np.ndarray:
    return np.arange(grid) / grid


def decode_exhaustive_batch(scheme: SchemeCode, ys, grid: int = 100_000, chunk: int = 128):
    """Maximum-likelihood oracle: grid argmin of ||y - s(x)|| plus refinement.

    All codewords share norm alpha, so the grid argmin reduces to a dot
    product argmax.  A golden-section pass around the best grid point
    sharpens the estimate to machine precision within one grid cell.
    """
    if grid < 1000:
        raise ValueError("grid must be at least 1000")
    ys = np.asarray(ys, dtype=float)
    xs_grid = _grid_points(grid)
    codebook = encode_batch(scheme, xs_grid)  # (G, 2N)
    b = ys.shape[0]
    best_idx = np.empty(b, dtype=np.int64)
    for start in range(0, b, chunk):
        sl = slice(start, min(start + chunk, b))
        dots = ys[sl] @ codebook.T
        best_idx[sl] = np.argmax(dots, axis=1)
    x0 = xs_grid[best_idx]

    # vectorized golden-section on f(x) = -<y, s(x)> over one grid cell
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.maximum(x0 - 1.0 / grid, 0.0)
    hi = np.minimum(x0 + 1.0 / grid, np.nextafter(1.0, 0.0))

    def f(x):
        pts = encode_batch(scheme, x)
        return -np.einsum("bn,bn->b", ys, pts)

    a_x = hi - inv_phi * (hi - lo)
    b_x = lo + inv_phi * (hi - lo)
    fa = f(a_x)
    fb = f(b_x)
    for _ in range(60):
        shrink_right = fa < fb
        hi = np.where(shrink_right, b_x, hi)
        lo = np.where(shrink_right, lo, a_x)
        a_x = hi - inv_phi * (hi - lo)
        b_x = lo + inv_phi * (hi - lo)
        fa = f(a_x)
        fb = f(b_x)
    out = 0.5 * (lo + hi)
    return np.minimum(out, np.nextafter(1.0, 0.0))


def decode_exhaustive(scheme: SchemeCode, y, grid: int = 100_000) -> float:
    y = np.asarray(y, dtype=float)
    return float(decode_exhaustive_batch(scheme, y[None, :], grid=grid)[0])
