"""Encoder and two-stage decoder for the multi-curve signal locus.

The unit interval is split into one subinterval per curve, proportionally to
curve length, and each subinterval is mapped affinely onto its curve minus a
seam arc: local parameter t goes to curve parameter g/2 + (1 - g)*t, where
g = guard / length.  The curves are closed, so without that arc the two ends
of a subinterval would meet at one ambient point and a small noise step
across the closure would cost a whole subinterval.  The decoder first
extracts per-pair magnitudes and angles from the received vector and picks
the closest layer from the magnitudes (a linear scan, M*N work, in bounded
row tiles, so its memory does not grow with M).  It then finds the closest
line of the chosen curve's box pre-image in the wrapped flat metric.  Both
stages read only directions and angles, so they do not depend on the scale
of the received vector: _received, the one entry check of both decoders,
scales a row whose coordinates would overflow or underflow by a power of
two, and the decoders take any finite vector.  The lines of the box
pre-image sit at the points of the curve's rank-(N-1) line lattice (the one
lattices._line_lattice builds for design too), so the second stage is a
closest-vector search in that lattice: Babai rounding, certified when the
rounded point lies within half the shortest lattice vector (found by
enumeration on the same reduced rows), and an exact enumeration for the
rows it cannot certify.  One reduction per curve gives
the table all of it.  Its work does not depend on the curve length ||u||_1.
The second stage reads one per-scheme table (_LineLattices), built on the
first decode, that takes the received angles straight to lattice
coefficients and the curve parameter; SchemeCode's arc map takes that back
to x.  decode_batch is the one decoder: decode runs it on a single row, and
decode_exhaustive_batch is the grid oracle it is checked against.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import CurveSpec, curve_point  # noqa: F401
from .lattices import _closest_in_ball, _gram_schmidt, _line_lattice, _shortest
from .torus import _embed, _is_int, _number, inter_torus_distance, min_separation  # noqa: F401

# curve_point and inter_torus_distance stay importable from here, though
# nothing here calls them: perfbench/traced.py wraps both by name.

__all__ = [
    "SchemeCode",
    "DecodeResult",
    "OpCounter",
    "build_scheme",
    "encode",
    "encode_batch",
    "decode",
    "decode_batch",
    "decode_exhaustive_batch",
]

_TWO_PI = 2.0 * math.pi
_BELOW_ONE = np.nextafter(1.0, 0.0)  # largest float64 below 1
# received rows per grid scan of decode_exhaustive_batch, bounding its
# (rows, grid) dot-product block
_EXHAUSTIVE_CHUNK = 128
# scores per tile of the layer scan, bounding its (rows, M) block to 512 KB
# while M <= _LAYER_TILE / 2
_LAYER_TILE = 1 << 16
# _received passes a received row unscaled when its largest |coordinate| lies
# in [_MAG_LOW, _MAG_HIGH).  Then each pair magnitude is below 2**500.5, so
# its square is below 2**1001 and no sum of fewer than 2**23 squares
# overflows; the largest square is at least 2**-900, so a square small
# enough to round as a subnormal is below its last bit
_MAG_LOW = 2.0**-450
_MAG_HIGH = 2.0**500


class OpCounter:
    """Accumulates scalar multiply/divide counts for complexity checks."""

    def __init__(self):
        self.mults = 0

    def add(self, n: int):
        self.mults += int(n)


def _check_alpha(alpha) -> float:
    """The power scale rule of a scheme: alpha a finite and positive number."""
    alpha = _number(alpha, "alpha")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be finite and positive")
    return alpha


@dataclass(frozen=True, eq=False)
class SchemeCode:
    """Full encoder state: the ordered curves, one per layer, the power
    scale alpha, and the seam guard.

    guard is the arc length, on the unit-sphere curve, left unused around
    each curve's closure point so that the two ends of a subinterval lie
    apart; 0 maps each subinterval onto the whole closed curve.

    Everything else is derived from these three fields: the curve lengths,
    the breakpoints of the interval partition (proportional to length), the
    arc map between x and (layer, curve parameter), the per-layer stacks the
    codec gathers from, and ball_radius, the protection radius of the whole
    locus: the smallest curve small-ball lower bound, capped at half the
    achieved layer separation (a single curve is only protected as far as
    the neighboring layers allow).
    """

    curves: tuple
    alpha: float
    guard: float = 0.0

    def __post_init__(self):
        if not self.curves:
            raise ValueError("need at least one curve")
        if any(cs.torus.dim != self.dim for cs in self.curves):
            raise ValueError("all curves must live on tori of the same dimension")
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "guard", _number(self.guard, "guard"))
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

    # The per-layer arrays below are cached and read-only: run_mse's worker
    # threads share them.

    @cached_property
    def _arcs(self) -> np.ndarray:
        """(M, 4) low end and width of each layer's subinterval of [0, 1), then
        g/2 and 1 - g, g = guard / length being the seam arc's parameter share."""
        lows = np.concatenate(([0.0], self.breakpoints[:-1]))
        g = self.guard / self.lengths
        return _frozen(np.stack((lows, self.breakpoints - lows, g / 2.0, 1.0 - g), axis=1))

    @cached_property
    def _spacings(self) -> np.ndarray:
        """(M,) the curves' line spacings."""
        return _frozen(np.array([cs.spacing for cs in self.curves]))

    @cached_property
    def _radii(self) -> np.ndarray:
        """(M, N) stack of the layers' c-vectors."""
        return _frozen(np.stack([cs.torus.c for cs in self.curves]))

    @cached_property
    def _u_hats(self) -> np.ndarray:
        """(M, N) stack of the curves' directions u_hat."""
        return _frozen(np.stack([cs.u_hat for cs in self.curves]))

    def _layers_of(self, xs: np.ndarray) -> np.ndarray:
        """Layer whose subinterval of [0, 1) holds each x."""
        return np.searchsorted(self.breakpoints, xs, side="right")

    def _to_curve(self, xs: np.ndarray):
        """Forward arc map: the layer of each x in [0, 1), of any shape, and its
        curve parameter g/2 + (1 - g)*local, local being x's place in its layer."""
        layers = self._layers_of(xs)
        low, width, half_g, kept = np.moveaxis(self._arcs.take(layers, axis=0), -1, 0)
        local = np.minimum((xs - low) / width, _BELOW_ONE)
        return layers, half_g + kept * local

    def _from_curve(self, layers: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Inverse arc map: x in [0, 1) of curve parameter t on the given
        layers; a point on the seam arc goes to the nearer end of its layer."""
        low, width, half_g, kept = self._arcs.take(layers, axis=0).T
        local = np.minimum(np.maximum((t - half_g) / kept, 0.0), _BELOW_ONE)
        return np.minimum(low + local * width, _BELOW_ONE)

    @property
    def n_layers(self) -> int:
        return len(self.curves)

    @property
    def dim(self) -> int:
        return self.curves[0].torus.dim

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
        return build_scheme(curves, alpha=d["alpha"], guard=d.get("guard", 0.0))


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
    return SchemeCode(curves=tuple(curves), alpha=alpha, guard=guard)


def _numbers(a, what: str) -> np.ndarray:
    """a as a float array; booleans, strings, objects and complex numbers
    raise ValueError, as torus._number does for one number."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def encode_batch(scheme: SchemeCode, xs) -> np.ndarray:
    xs = _numbers(xs, "encoder input")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise ValueError("encoder input must lie in [0, 1)")
    ks, t = scheme._to_curve(xs)
    # curve_point of curve ks at parameter t, gathered
    return scheme.alpha * _embed(scheme._radii[ks], _TWO_PI * t[..., None] * scheme._u_hats[ks])


def encode(scheme: SchemeCode, x: float) -> np.ndarray:
    """Encode x in [0, 1) to a point of norm alpha in R^(2N)."""
    return encode_batch(scheme, np.reshape(x, 1))[0]


def _polar(y):
    """Magnitudes, angles in [0, 2*pi), and the zero-magnitude mask of the
    float rows y; a zero pair takes angle 0."""
    even = y[..., 0::2]
    odd = y[..., 1::2]
    gamma = np.hypot(even, odd)
    ang = np.arctan2(odd, even)
    ang[ang < 0.0] += _TWO_PI
    zero = gamma == 0.0
    ang[zero] = 0.0
    return gamma, ang, zero


def _nearest_layers(scheme: SchemeCode, gamma: np.ndarray) -> np.ndarray:
    """Layer of each magnitude row (B, N): the c-vector closest to its
    direction.  The layers are unit vectors, so that one maximizes the dot
    product; an all-zero row gets layer 0.  Each row holds the pair
    magnitudes of a row in _received's range, so no square overflows, and a
    square that underflows lies below the largest one's last bit.

    The scan runs in tiles of rows whose (rows, M) score block holds at most
    max(_LAYER_TILE, 2*M) scores (a tile has at least two rows), so its
    memory does not grow with the layer count M.  An exact tie goes the way
    BLAS rounds it: a one-row product and a product of two or more rows can
    settle it differently, so the scan never makes a tile of one row out of
    a larger batch.
    """
    # np.linalg.norm's arithmetic, without its per-call dispatch
    norms = np.sqrt(np.add.reduce(gamma * gamma, axis=1))
    unit = gamma / np.where(norms > 0.0, norms, 1.0)[:, None]
    radii_t = scheme._radii.T
    b = len(unit)
    rows = max(2, _LAYER_TILE // radii_t.shape[1])
    layers = np.empty(b, dtype=np.intp)
    for start in range(0, b, rows):
        # no tile of one row in a batch of more: BLAS takes a single row
        # through another kernel, whose rounding can break an exact tie the
        # other way, so a one-row tail starts a row early
        tile = slice(min(start, b - 2), start + rows)
        layers[tile] = (unit[tile] @ radii_t).argmax(axis=1)
    return layers


@dataclass(frozen=True, eq=False)
class _LineLattices:
    """Closest-line table for a list of curves, stacked over curves.

    Curve k's box pre-image is the set of lines {2*pi*(u_hat*x + c*n)}; the
    line n lies at lattice point z @ basis[k] of the hyperplane orthogonal to
    u_hat, with n = z @ kernel[k] (see lattices._line_lattice).  Received
    angles a give the box point p = a*c, whose projection has real
    coefficients t = p @ coeffs[k] in that basis, so the closest line is a
    closest-vector problem in a rank-(N-1) lattice whose cost does not
    depend on the curve length.  The point's position along line n is
    (p - 2*pi*c*n) @ along[k], with along = u_hat / (2*pi*||u_hat||^2).

    The table works in angle space: c is folded into the constants, so
    a @ fold[k] gives t and p @ along[k] at once, with fold[k] the columns
    [c*coeffs[k] | c*along[k]], and the position along the line is that last
    column minus z @ offset[k], with offset[k] = kernel[k] @ (2*pi*c*along[k]),
    so the integer line n is never built; taken modulo 1, it is the curve
    parameter, which the scheme's arc map takes to x.  The shortest lattice
    vector, which bounds the Babai certificate, is _shortest of basis[k],
    the rows the table reduced, on the table's own Gram-Schmidt data, so
    each curve's lattice is reduced and orthogonalised once.
    The arrays are read-only: run_mse's worker threads share the table.
    """

    fold: np.ndarray  # (M, N, N): angles -> (coefficients, position along the line)
    offset: np.ndarray  # (M, N-1): position shift per lattice coefficient
    gram: np.ndarray  # (M, N-1, N-1)
    certified2: np.ndarray  # (M,): squared half shortest lattice vector
    gso: tuple  # per curve (mu, norms2) tuples for the enumeration fallback

    @classmethod
    def build(cls, curves) -> "_LineLattices":
        kernel, gram, coeffs, gso, shortest = [], [], [], [], []
        for cs in curves:
            kern, basis = _line_lattice(cs.torus.c, cs.u)
            g = basis @ basis.T
            kernel.append(np.array(kern, dtype=np.int64))
            gram.append(g)
            coeffs.append(np.linalg.solve(g, basis).T)
            gso.append(_gram_schmidt(basis))
            shortest.append(_shortest(basis, gso[-1]).norm)
        c = np.stack([cs.torus.c for cs in curves])
        u_hat = np.stack([cs.u_hat for cs in curves])
        along = u_hat / (_TWO_PI * np.einsum("kn,kn->k", u_hat, u_hat))[:, None]
        fold = np.concatenate((c[:, :, None] * np.stack(coeffs), (c * along)[:, :, None]), axis=2)
        return cls(
            fold=_frozen(fold),
            offset=_frozen(np.einsum("kmn,kn->km", np.stack(kernel), _TWO_PI * c * along)),
            gram=_frozen(np.stack(gram)),
            # a lattice point closer than half the shortest vector is the
            # unique closest one; the margin absorbs rounding
            certified2=_frozen((np.array(shortest) / 2.0) ** 2 * (1.0 - 1e-9)),
            gso=tuple(gso),
        )

    def locate(self, layers: np.ndarray, angles: np.ndarray):
        """Curve parameter in [0, 1) of the closest line of curve layers[i]
        to the received angles angles[i] (B, N), in the wrapped flat metric,
        and the number of enumeration nodes visited.

        Babai rounding of the coefficients: a rounded point closer than half
        the shortest lattice vector is the closest line.  Other rows run an
        exact enumeration seeded with the rounded point's distance.
        """
        folded = np.einsum("bn,bnm->bm", angles, self.fold.take(layers, axis=0))
        t = folded[:, :-1]
        z = np.rint(t)
        f = t - z
        babai2 = np.einsum("bn,bnm,bm->b", f, self.gram.take(layers, axis=0), f)
        nodes = 0
        for i in (babai2 >= self.certified2.take(layers)).nonzero()[0].tolist():
            mu, norms2 = self.gso[layers[i]]
            bound2 = babai2[i] * (1.0 + 1e-9)
            found, _, visited = _closest_in_ball(mu, norms2, t[i].tolist(), bound2)
            nodes += visited
            if found is not None:
                z[i] = found
        t = folded[:, -1] - np.einsum("bm,bm->b", z, self.offset.take(layers, axis=0))
        t -= np.floor(t)
        return np.minimum(t, _BELOW_ONE), nodes

    def mults(self, rows: int, nodes: int) -> int:
        """Multiplies of the closest-line search of `rows` rows whose
        enumerations visited `nodes` nodes in all."""
        n = self.fold.shape[1]
        m = n - 1
        # the count of the box-point formulation, whose work the table does
        # in fewer steps: the coefficients, f G f, the line index, the
        # residual and the position along the line; one partial norm update
        # per enumeration node
        return rows * (n * m + m * m + m + m * n + 2 * n) + nodes * n


def _received(scheme: SchemeCode, ys) -> np.ndarray:
    """ys as float received vectors of shape (B, 2N), all finite, each row
    in the decoders' range.

    Both decoders read only the direction of a row, so a row whose largest
    |coordinate| lies outside [_MAG_LOW, _MAG_HIGH) is scaled by the power of
    two that brings that coordinate into [0.5, 1), which is exact.  Every
    other row keeps its bits, and a batch whose coordinates all lie in that
    range (NaN and inf do not) passes through untouched.
    """
    ys = _numbers(ys, "received vectors")
    expected = 2 * scheme.dim
    if ys.ndim != 2 or ys.shape[1] != expected:
        raise ValueError(f"received vectors must have shape (B, {expected}), got {ys.shape}")
    size = np.abs(ys)
    if size.max(initial=0.0) < _MAG_HIGH and size.min(initial=_MAG_LOW) >= _MAG_LOW:
        return ys
    if not np.isfinite(ys).all():
        raise ValueError("received vectors must be finite")
    top = size.max(axis=1)
    far = (top < _MAG_LOW) | (top >= _MAG_HIGH)
    # a new array, not the caller's; frexp gives a zero row exponent 0
    return np.ldexp(ys, -np.where(far, np.frexp(top)[1], 0)[:, None])


def decode_batch(scheme: SchemeCode, ys, *, counter: OpCounter | None = None):
    """Vectorized two-stage decoding of received vectors (B, 2N).

    Returns (x_hat, layer, undecodable, phase_fallback) arrays.  Undecodable
    rows (all magnitudes zero) decode to 0 with layer -1 and are flagged
    rather than raised, so Monte Carlo runs survive pathological inputs.
    """
    ys = _received(scheme, ys)
    gamma, angles, zero = _polar(ys)
    undecodable = zero.all(axis=1)
    fallback = zero.any(axis=1) & ~undecodable
    # every row is decoded; an undecodable row has layer 0 and zero angles,
    # the lattice origin, and its result is masked below
    layers = _nearest_layers(scheme, gamma)
    lines = scheme._line_lattices
    t, nodes = lines.locate(layers, angles)
    x_hat = scheme._from_curve(layers, t)
    if counter is not None:
        b, n = ys.shape[0], scheme.dim
        rows = b - int(np.count_nonzero(undecodable))
        # polar data and layer choice per row; the search and the inverse arc
        # map per decodable row
        counter.add(b * (4 * n + scheme.n_layers * n + n) + rows * (n + 1))
        counter.add(lines.mults(rows, nodes))
    return (
        np.where(undecodable, 0.0, x_hat),
        np.where(undecodable, -1, layers),
        undecodable,
        fallback,
    )


def decode(scheme: SchemeCode, y, counter: OpCounter | None = None) -> DecodeResult:
    """Two-stage decoding of a single received vector."""
    x_hat, layers, undec, fb = decode_batch(scheme, np.asarray(y)[None, :], counter=counter)
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


def decode_exhaustive_batch(scheme: SchemeCode, ys, grid: int = 100_000):
    """Maximum-likelihood oracle: grid argmin of ||y - s(x)|| plus refinement.

    All codewords share norm alpha, so the grid argmin reduces to a dot
    product argmax.  A golden-section pass around the best grid point
    sharpens the estimate to machine precision within one grid cell.
    """
    if not (_is_int(grid) and grid >= 1000):
        raise ValueError("grid must be an integer of at least 1000")
    ys = _received(scheme, ys)
    xs_grid = np.arange(grid) / grid
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
        np.minimum(x0 + 1.0 / grid, _BELOW_ONE),
    )
    return np.minimum(out, _BELOW_ONE)
