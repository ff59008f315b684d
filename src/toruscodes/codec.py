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
Those lines sit at the points of the curve's rank-(N-1) line lattice (the
one lattices._line_lattice builds for design too), so the second stage is
a closest-vector search in that lattice: Babai rounding, certified when the
rounded point lies within half the shortest lattice vector, and an exact
enumeration for the rows it cannot certify.  Its work does not depend on
the curve length ||u||_1.  The scalar functions wrap the stages of decode_batch.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import CurveSpec, curve_point  # noqa: F401
from .lattices import LatticeBasis, _closest_in_ball, _gram_schmidt, _line_lattice, shortest_vector
from .torus import TorusSpec, _embed, embed, inter_torus_distance, min_separation  # noqa: F401

# curve_point and inter_torus_distance stay importable from here, though
# nothing here calls them: perfbench/traced.py wraps both by name.

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
# received rows per grid scan of decode_exhaustive_batch, bounding its
# (rows, grid) dot-product block
_EXHAUSTIVE_CHUNK = 128


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
    """Full encoder state: the ordered curves, one per layer, the power
    scale alpha, and the seam guard.

    guard is the arc length, on the unit-sphere curve, left unused around
    each curve's closure point so that the two ends of a subinterval lie
    apart; 0 maps each subinterval onto the whole closed curve.

    Everything else is derived from these three fields: the curve lengths,
    the breakpoints of the interval partition (proportional to length), the
    per-layer arrays the encoder and decoder gather from, and ball_radius,
    the protection radius of the whole locus: the smallest curve small-ball
    lower bound, capped at half the achieved layer separation (a single
    curve is only protected as far as the neighboring layers allow).
    """

    curves: tuple
    alpha: float
    guard: float = 0.0

    def __post_init__(self):
        if not self.curves:
            raise ValueError("need at least one curve")
        if any(cs.torus.dim != self.dim for cs in self.curves):
            raise ValueError("all curves must live on tori of the same dimension")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.guard < float(self.lengths.min()):
            raise ValueError("guard must lie in [0, shortest curve length)")

    @cached_property
    def lengths(self) -> np.ndarray:
        return _frozen(np.array([cs.length for cs in self.curves]))

    @cached_property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """Upper end of each layer's subinterval of [0, 1)."""
        breakpoints = np.cumsum(self.lengths) / self.total_length
        breakpoints[-1] = 1.0
        return _frozen(breakpoints)

    @cached_property
    def ball_radius(self) -> float:
        # lazy: the layer separations cost O(M^2), and encoding and
        # decoding never need them
        sep = min_separation([cs.torus for cs in self.curves])
        return float(min(min(cs.ball_lower for cs in self.curves), sep / 2.0))

    @cached_property
    def _lows(self) -> np.ndarray:
        """(M,) lower end of each layer's subinterval."""
        return np.concatenate(([0.0], self.breakpoints[:-1]))

    @cached_property
    def _widths(self) -> np.ndarray:
        return self.breakpoints - self._lows

    @cached_property
    def _seams(self) -> np.ndarray:
        """(M,) fraction g of each curve's parameter taken by the seam arc."""
        return self.guard / self.lengths

    @cached_property
    def _radii(self) -> np.ndarray:
        """(M, N) stack of the layers' c-vectors."""
        return np.stack([cs.torus.c for cs in self.curves])

    @cached_property
    def _u_hats(self) -> np.ndarray:
        """(M, N) stack of the curves' directions u_hat."""
        return np.stack([cs.u_hat for cs in self.curves])

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_scheme(curves, alpha: float = 1.0, guard: float = 0.0) -> SchemeCode:
    """Assemble a SchemeCode from curves (one per layer), a power scale and a
    seam guard arc length."""
    return SchemeCode(curves=tuple(curves), alpha=float(alpha), guard=float(guard))


def encode_batch(scheme: SchemeCode, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise ValueError("encoder input must lie in [0, 1)")
    ks = np.searchsorted(scheme.breakpoints, xs, side="right")
    local = np.minimum((xs - scheme._lows[ks]) / scheme._widths[ks], np.nextafter(1.0, 0.0))
    g = scheme._seams[ks]
    # curve_point of curve ks at parameter g/2 + (1 - g)*local, gathered
    t = g / 2.0 + (1.0 - g) * local
    return scheme.alpha * _embed(scheme._radii[ks], _TWO_PI * t[..., None] * scheme._u_hats[ks])


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


def _nearest_layers(scheme: SchemeCode, gamma: np.ndarray) -> np.ndarray:
    """Layer of each magnitude row (B, N): the c-vector closest to its
    direction.  The layers are unit vectors, so that one maximizes the dot
    product; an all-zero row gets layer 0."""
    norms = np.linalg.norm(gamma, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.argmax((gamma / safe[:, None]) @ scheme._radii.T, axis=1)


def _box_points(c: np.ndarray, gamma: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Box coordinates angle_i * c_i of the torus point nearest to the
    received pairs with polar data (gamma, theta); a zero pair takes angle 0."""
    angles = np.where(gamma > 0.0, theta / np.where(gamma > 0.0, gamma, 1.0), 0.0)
    return angles * c


def nearest_layer(scheme: SchemeCode, gamma) -> int:
    """Index of the layer whose c-vector is closest to the direction of gamma."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.any(gamma):
        raise UndecodableError("zero magnitude vector")
    return int(_nearest_layers(scheme, gamma[None, :])[0])


def project_to_torus(layer: TorusSpec, gamma, theta) -> np.ndarray:
    """Nearest point of the torus to y, reconstructed from its polar data."""
    gamma = np.asarray(gamma, dtype=float)
    return embed(layer, _box_points(layer.c, gamma, np.asarray(theta, dtype=float)))


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
    gso: tuple  # per curve (mu, norms2) lists for the enumeration fallback

    @classmethod
    def build(cls, curves) -> "_LineLattices":
        kernel, gram, coeffs, gso, shortest = [], [], [], [], []
        for cs in curves:
            kern, basis = _line_lattice(cs.torus.c, cs.u)
            g = basis @ basis.T
            kernel.append(np.array(kern, dtype=np.int64))
            gram.append(g)
            coeffs.append(np.linalg.solve(g, basis).T)
            mu, norms2 = _gram_schmidt(basis)
            gso.append((mu.tolist(), norms2.tolist()))
            # the line spacing (2*pi-scaled) from the lattice itself, not
            # from cs.spacing, which a scheme file supplies unchecked
            shortest.append(shortest_vector(LatticeBasis(basis)).norm)
        c = np.stack([cs.torus.c for cs in curves])
        u_hat = np.stack([cs.u_hat for cs in curves])
        return cls(
            kernel=np.stack(kernel),
            gram=np.stack(gram),
            coeffs=np.stack(coeffs),
            periods=_TWO_PI * c,
            along=u_hat / (_TWO_PI * np.einsum("kn,kn->k", u_hat, u_hat))[:, None],
            # a lattice point closer than half the shortest vector is the
            # unique closest one; the margin absorbs rounding
            certified2=(np.array(shortest) / 2.0) ** 2 * (1.0 - 1e-9),
            gso=tuple(gso),
        )

    def closest_lines(self, layers: np.ndarray, box: np.ndarray, counter: OpCounter | None = None):
        """Parameter in [0, 1) of the closest line of curve layers[i] to each
        box point box[i] (B, N), in the wrapped flat metric.

        Babai rounding of the coefficients: a rounded point closer than half
        the line spacing is the closest line.  Other rows run an exact
        enumeration seeded with the rounded point's distance.
        """
        b, n = box.shape
        t = np.einsum("bn,bnm->bm", box, self.coeffs[layers])
        z = np.rint(t)
        f = t - z
        babai2 = np.einsum("bn,bnm,bm->b", f, self.gram[layers], f)
        nodes = 0
        for i in np.flatnonzero(babai2 >= self.certified2[layers]):
            mu, norms2 = self.gso[layers[i]]
            bound2 = babai2[i] * (1.0 + 1e-9)
            found, _, visited = _closest_in_ball(mu, norms2, t[i].tolist(), bound2)
            nodes += visited
            if found is not None:
                z[i] = found
        lines = np.einsum("bm,bmn->bn", z.astype(np.int64), self.kernel[layers])
        resid = box - self.periods[layers] * lines
        xs = np.einsum("bn,bn->b", resid, self.along[layers])
        xs -= np.floor(xs)
        if counter is not None:
            m = n - 1
            # coefficients, f G f, line index, residual, position along the line
            counter.add(b * (n * m + m * m + m + m * n + 2 * n))
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

    layers = _nearest_layers(scheme, gamma)
    if counter is not None:
        counter.add(b * (4 * scheme.dim + scheme.n_layers * scheme.dim + scheme.dim))

    x_hat = np.zeros(b)
    rows = np.flatnonzero(~undecodable)
    if rows.size:
        k = layers[rows]
        box = _box_points(scheme._radii[k], gamma[rows], theta[rows])
        xl = scheme._line_lattices.closest_lines(k, box, counter)
        # invert the seam map; a point on the seam arc goes to the nearer end
        g = scheme._seams[k]
        local = np.clip((xl - g / 2.0) / (1.0 - g), 0.0, np.nextafter(1.0, 0.0))
        x_hat[rows] = scheme._lows[k] + local * scheme._widths[k]
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


def _golden_section(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise minimiser of f over the brackets [lo, hi] by 60
    golden-section steps; f maps an array of points to their values."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        a = hi - inv_phi * (hi - lo)
        b = lo + inv_phi * (hi - lo)
        left = f(a) < f(b)
        hi = np.where(left, b, hi)
        lo = np.where(left, lo, a)
    return 0.5 * (lo + hi)


def _grid_points(grid: int) -> np.ndarray:
    return np.arange(grid) / grid


def decode_exhaustive_batch(scheme: SchemeCode, ys, grid: int = 100_000):
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
    for start in range(0, b, _EXHAUSTIVE_CHUNK):
        sl = slice(start, start + _EXHAUSTIVE_CHUNK)
        dots = ys[sl] @ codebook.T
        best_idx[sl] = np.argmax(dots, axis=1)
    x0 = xs_grid[best_idx]
    # golden-section on f(x) = -<y, s(x)> over one grid cell
    out = _golden_section(
        lambda x: -np.einsum("bn,bn->b", ys, encode_batch(scheme, x)),
        np.maximum(x0 - 1.0 / grid, 0.0),
        np.minimum(x0 + 1.0 / grid, np.nextafter(1.0, 0.0)),
    )
    return np.minimum(out, np.nextafter(1.0, 0.0))


def decode_exhaustive(scheme: SchemeCode, y, grid: int = 100_000) -> float:
    y = np.asarray(y, dtype=float)
    return float(decode_exhaustive_batch(scheme, y[None, :], grid=grid)[0])
