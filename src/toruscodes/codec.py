"""Encoder and two-stage decoder for the multi-curve signal locus.

The unit interval is split into one subinterval per curve, proportionally to
curve length, and each subinterval is mapped affinely onto its curve minus a
seam arc: local parameter t goes to curve parameter g/2 + (1 - g)*t, where
g = guard / length.  The curves are closed, so without that arc the two ends
of a subinterval would meet at one ambient point and a small noise step
across the closure would cost a whole subinterval.  The encoder finds each
x's layer on a grid of 2**12 cells over [0, 1) (SchemeCode._layer_grid,
built on the first encode), with the answer of a binary search over the
breakpoints.  The decoder first extracts per-pair angles and magnitudes
from the received vector and picks the closest layer from the magnitudes.
The answer is that of a linear scan (M*N work per row, in bounded row
tiles, so its memory does not grow with M), but a per-scheme lookup
(_LayerLookup, built on the first large decode) proves it for most rows in
O(N) work: a row lying well inside half the distance from its candidate
layer to that layer's nearest neighbour has that layer as the scan's unique
argmax.  The lookup reads magnitudes built without hypot, good to a few
ulps, which its margin covers; hypot and the scan run only on the other
rows.  It then finds the closest line of the chosen curve's box pre-image
in the wrapped flat metric.  Both stages read only directions and angles,
so they do not depend on the scale of the received vector: _received, the
one entry check of both decoders, scales a row whose coordinates would
overflow or underflow by a power of two, and the decoders take any finite
vector.  The lines of the box pre-image sit at the points of the curve's
rank-(N-1) line lattice, so the second stage is a closest-vector search in
that lattice: Babai rounding, certified when the rounded point lies within
half the shortest lattice vector, and an exact enumeration for the rows it
cannot certify.  That shortest vector is the curve's line spacing, so the
certificate is half the spacing.  A large batch first bounds each row's
squared distance f G f by ||f||**2 times the top eigenvalue of the curve's
Gram matrix, which certifies most rows, and computes f G f only on the
rest.  So each stage runs its exact arithmetic only on the rows a cheap
certificate leaves, and every output has the bits that the exact
arithmetic on every row gives.  Each CurveSpec owns its reduced line
lattice (CurveSpec._lattice: one reduction, one Gram-Schmidt and one
shortest-vector search, whoever asks first), and the table reads it there,
so a designed curve is not reduced again and the table's spacings, which
run_mse reads (SchemeCode._spacings), are cs.spacing.  The lattice search
runs on the unit-scale rows of the spacing; the map from received angles to
lattice coefficients runs at the 2*pi scale of the box pre-image.  The
search's work does not depend on the curve length ||u||_1.
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
from .lattices import _closest_in_ball
from .torus import _embed, _is_int, _number, inter_torus_distance, separation_rows  # noqa: F401

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
# scores per tile of the layer scan and the grid oracle's scan, bounding a
# (rows, M) or (rows, grid) block to 512 KB while M or grid <= _LAYER_TILE / 2
_LAYER_TILE = 1 << 16
# cells of the encoder's layer grid over [0, 1), a power of two so that
# x * _LAYER_CELLS is exact (SchemeCode._layer_grid)
_LAYER_CELLS = 1 << 12
# _received passes a received row unscaled when its largest |coordinate| lies
# in [_MAG_LOW, _MAG_HIGH).  Then each pair magnitude is below 2**500.5, so
# its square is below 2**1001 and no sum of fewer than 2**23 squares
# overflows; the largest square is at least 2**-900, so a square small
# enough to round as a subnormal is below its last bit
_MAG_LOW = 2.0**-450
_MAG_HIGH = 2.0**500
# the layer lookup certifies a row whose squared distance to its candidate
# layer k lies below rho_k**2 - _LOOKUP_MARGIN (_LayerLookup's proof)
_LOOKUP_MARGIN = 1e-9
# most cells of the layer lookup's candidate grid, one byte each while M <= 256
_LOOKUP_CELLS = 1 << 16
# a batch of fewer rows * M scores than this is scanned whole: on the stored
# schemes (M = 23 and 84) the lookup's fixed cost per call, ~7-12 us, is
# above the whole scan's cost up to 10-20 thousand scores
_LOOKUP_SCORES = 1 << 14
# the closest-line search of a batch of fewer rows runs f G f on every row,
# not only on the rows that the bound ||f||**2 * top_k leaves
# (_LineLattices): below ~230-260 rows the bound's fixed cost per call,
# ~6-10 us, is above what it saves.  Measured on the stored schemes (M = 23
# and 84) at sigma = alpha*delta/4; the break-even does not move with M, so
# the lookup's rows * M rule would take the bound at 15 rows when M = 1126
_BOUND_ROWS = 1 << 8


class OpCounter:
    """Accumulates scalar multiply/divide counts for complexity checks.

    decode_batch counts the work it did: for the layer choice, about 2N per
    row the lookup looked at and M*N per row the scan ran on, so a batch
    the lookup certifies costs O(N) per row there, not O(M*N)."""

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
    the neighboring layers allow).  That separation is the smallest of the
    nearest-layer distances (_nearest), whose halves are also the layer
    lookup's certificates rho_k, so one pass over the layer pairs serves both.
    The curves must live on tori of one dimension N >= 2.
    """

    curves: tuple
    alpha: float
    guard: float = 0.0

    def __post_init__(self):
        if not self.curves:
            raise ValueError("need at least one curve")
        if any(cs.torus.dim != self.dim for cs in self.curves):
            raise ValueError("all curves must live on tori of the same dimension")
        if self.dim < 2:
            raise ValueError("curves must live on tori of dimension >= 2")
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
        # the smallest nearest-layer distance is min_separation's float
        return float(min(min(cs.ball_lower for cs in self.curves), self._nearest.min() / 2.0))

    # The per-layer arrays below are cached and read-only: run_mse's worker
    # threads share them.

    @cached_property
    def _arcs(self) -> np.ndarray:
        """(M, 4) low end and width of each layer's subinterval of [0, 1), then
        g/2 and 1 - g, g = guard / length being the seam arc's parameter share."""
        lows = np.concatenate(([0.0], self.breakpoints[:-1]))
        g = self.guard / self.lengths
        return _frozen(np.stack((lows, self.breakpoints - lows, g / 2.0, 1.0 - g), axis=1))

    @property
    def _spacings(self) -> np.ndarray:
        """(M,) the curves' line spacings, the decoder table's: the bits of
        cs.spacing, without a second reduction or search."""
        return self._line_lattices.spacing

    @cached_property
    def _radii(self) -> np.ndarray:
        """(M, N) stack of the layers' c-vectors."""
        return _frozen(np.stack([cs.torus.c for cs in self.curves]))

    @cached_property
    def _nearest(self) -> np.ndarray:
        """(M,) each layer's distance to its nearest other layer (inf for a
        scheme of one layer): one O(M^2) pass over all pairs, which
        ball_radius and the layer lookup share, made on the first call of
        either, never at load or by encode."""
        near = np.full(self.n_layers, np.inf)
        for i, d in separation_rows([cs.torus for cs in self.curves]):
            near[i] = min(near[i], d.min())
            np.minimum(near[i + 1 :], d, out=near[i + 1 :])
        return _frozen(near)

    @cached_property
    def _u_hats(self) -> np.ndarray:
        """(M, N) stack of the curves' directions u_hat."""
        return _frozen(np.stack([cs.u_hat for cs in self.curves]))

    @cached_property
    def _layer_grid(self):
        """The encoder's layer grid: [0, 1) cut into _LAYER_CELLS cells, and
        per cell the number of breakpoints at or below its low edge (cells,)
        and the breakpoints strictly inside it, in order, padded with inf
        (K, cells), K being the most breakpoints inside one cell.  Built on
        the first encode, never at load."""
        lows = np.arange(_LAYER_CELLS) / _LAYER_CELLS
        below = np.searchsorted(self.breakpoints, lows, side="right")
        scaled = self.breakpoints * _LAYER_CELLS  # exact
        strict = scaled != np.floor(scaled)  # not on a cell edge, as 1.0 is
        cells = np.floor(scaled[strict]).astype(np.intp)
        # each breakpoint's place among those of its cell
        place = np.arange(cells.size) - np.searchsorted(cells, cells)
        inside = np.full((place.max(initial=-1) + 1, _LAYER_CELLS), np.inf)
        inside[place, cells] = self.breakpoints[strict]
        return _frozen(below), _frozen(inside)

    def _layers_of(self, xs: np.ndarray) -> np.ndarray:
        """Layer whose subinterval of [0, 1) holds each x: the number of
        breakpoints at or below x, np.searchsorted(breakpoints, xs,
        side="right").  x * _LAYER_CELLS is exact, so x lies in its cell,
        and the count is the cell's count below plus K compares."""
        below, inside = self._layer_grid
        cells = (xs * _LAYER_CELLS).astype(np.intp)
        layers = below.take(cells)
        for row in inside:
            layers += row.take(cells) <= xs
        return layers

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

    @cached_property
    def _layer_lookup(self) -> "_LayerLookup":
        # built on the first decode that uses it, never at load, as above
        return _LayerLookup.build(self._radii, self._nearest)

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
    raise ValueError, as torus._number does for one number.  numpy reads a
    boolean among numbers as 0 or 1, so the entries of an input that is not
    yet an array are looked at too; an array's dtype already tells."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "iuf" or (not isinstance(a, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(a, dtype=object).flat
    )):
        raise ValueError(f"{what} must be numbers, not booleans, strings, objects or complex")
    return arr.astype(float, copy=False)


def encode_batch(scheme: SchemeCode, xs) -> np.ndarray:
    xs = _numbers(xs, "encoder input")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise ValueError("encoder input must lie in [0, 1)")
    ks, t = scheme._to_curve(xs)
    # curve_point of curve ks at parameter t, gathered
    u = _TWO_PI * t[..., None] * scheme._u_hats.take(ks, axis=0)
    out = _embed(scheme._radii.take(ks, axis=0), u)
    out *= scheme.alpha
    return out


def encode(scheme: SchemeCode, x: float) -> np.ndarray:
    """Encode x in [0, 1) to a point of norm alpha in R^(2N)."""
    return encode_batch(scheme, np.reshape(x, 1))[0]


def _polar(y):
    """Angles in [0, 2*pi) of the pairs of the float rows y, a zero pair
    taking angle 0, and the mask of the zero pairs, or None when no pair is
    zero, so that a batch without one skips the masking."""
    even = y[..., 0::2]
    odd = y[..., 1::2]
    ang = np.arctan2(odd, even)
    np.add(ang, _TWO_PI, out=ang, where=ang < 0.0)  # -0.0 stays -0.0
    zero = (even == 0.0) & (odd == 0.0)  # exactly where hypot(even, odd) == 0
    if not np.count_nonzero(zero):
        return ang, None
    np.copyto(ang, 0.0, where=zero)
    return ang, zero


def _exact_unit(y: np.ndarray) -> np.ndarray:
    """The unit rows of the pair magnitudes of the received rows y (B, 2N),
    the magnitudes taken by np.hypot: the rows the layer scan reads.  A row
    of zero pairs stays zero."""
    gamma = np.hypot(y[:, 0::2], y[:, 1::2])
    # np.linalg.norm's arithmetic, without its per-call dispatch
    norms = np.sqrt(np.add.reduce(gamma * gamma, axis=1))
    return gamma / np.where(norms > 0.0, norms, 1.0)[:, None]


def _nearest_layers(
    scheme: SchemeCode, y: np.ndarray, counter: OpCounter | None = None
) -> np.ndarray:
    """Layer of each received row (B, 2N): the c-vector closest to the
    direction of its pair magnitudes.  The layers are unit vectors, so that
    one maximizes the dot product; a row of zero pairs gets layer 0.  Each
    row lies in _received's range, so no square overflows, and a square
    that underflows lies below the largest one's last bit.

    The answer is the scan's: the argmax of the exact unit rows' scores
    (_exact_unit) against all M layers, in _best_columns' bounded tiles, an
    exact tie going the way BLAS rounds it.  The scheme's _LayerLookup
    proves that answer for most rows in O(N) work each, on unit rows built
    from the squares e*e + o*o without hypot, which lie within a few ulps
    of the exact ones; hypot and the scan run only on the rows it cannot
    certify (ties, near-ties and zero rows among them).  A batch of fewer
    than _LOOKUP_SCORES scores is scanned whole, which costs less than the
    lookup's fixed cost and does not build it.
    """
    m, n = scheme._radii.shape
    looked_up = len(y) * m >= _LOOKUP_SCORES
    if looked_up:
        # sqrt(squared pair magnitude / squared row norm), without hypot
        even = y[:, 0::2]
        odd = y[:, 1::2]
        unit = even * even
        unit += odd * odd
        total = np.add.reduce(unit, axis=1)
        unit /= np.where(total > 0.0, total, 1.0)[:, None]
        np.sqrt(unit, out=unit)
        layers, scanned = scheme._layer_lookup.nearest(unit, lambda rows: _exact_unit(y[rows]))
    else:
        layers, scanned = _best_columns(_exact_unit(y), scheme._radii.T), len(y)
    if counter is not None:
        # a cell index and a squared distance per looked-up row, M scores
        # per scanned row
        counter.add(looked_up * len(y) * 2 * n + scanned * m * n)
    return layers


def _best_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmax over each row of a @ b, computed in tiles of rows whose score
    block holds at most max(_LAYER_TILE, 2 * b.shape[1]) scores (a tile has at
    least two rows), so the memory does not grow with the row count of a.
    The layer scan and the grid oracle both scan here.  An exact tie goes
    the way BLAS rounds it: a one-row product and a product of two or more
    rows can settle it differently, so the scan never makes a tile of one
    row out of a larger batch.
    """
    n = len(a)
    rows = max(2, _LAYER_TILE // b.shape[1])
    best = np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        # no tile of one row in a batch of more: BLAS takes a single row
        # through another kernel, whose rounding can break an exact tie the
        # other way, so a one-row tail starts a row early
        tile = slice(min(start, n - 2), start + rows)
        best[tile] = (a[tile] @ b).argmax(axis=1)
    return best


@dataclass(frozen=True, eq=False)
class _LayerLookup:
    """Certified layer lookup: the scan's layer for most unit rows, without
    scoring all M layers.

    rho_k is half the distance from layer c_k to its nearest other layer
    (inf for a scheme of one layer), read from the scheme's one pass over
    the layer pairs (SchemeCode._nearest), which ball_radius reads too.  A
    coarse grid over the first N-1 coordinates of a unit row u, cells about
    min rho / 4 wide and at most _LOOKUP_CELLS of them, names a candidate
    layer per cell: the scan's layer for the cell's centre.  The lookup
    certifies the candidate k of a row when ||u - c_k||**2 < rho_k**2 -
    _LOOKUP_MARGIN (bound2[k]), and scans every other row.

    Proof that a certified k is the scan's answer.  TorusSpec holds each
    ||c_j|| within 1e-12 of 1, so ||c_k||**2 - ||c_j||**2 > -5e-12.  With
    d = ||u - c_k|| < rho_k, the triangle inequality gives ||u - c_j|| >=
    2*rho_k - d for every j != k, so

        2*(u.c_k - u.c_j) = ||u - c_j||**2 - d**2 + ||c_k||**2 - ||c_j||**2
                          >= 4*rho_k*(rho_k - d) - 5e-12
                          >= 2*(rho_k**2 - d**2) - 5e-12,

    and the certificate makes rho_k**2 - d**2 exceed _LOOKUP_MARGIN = 1e-9
    but for the rounding of two sums of N squares, ~1e-16*N.  So the score
    of k beats every other score by more than 9.9e-10, while each float
    score is within N * 2**-53 of its exact value: for any N below ~4e6 the
    scan picks k, in any batch and any tile, and a candidate that is not
    the nearest layer can never pass.  The margin is absolute, not relative
    to rho_k, because the norm slack it covers is.  A zero row is never
    certified when M > 1: ||0 - c_k|| ~ 1 while rho_k <= sqrt(2)/2, since
    the layers lie in the positive orthant.

    The certificate need not read the unit rows that the scan reads.
    _nearest_layers certifies on sqrt(g_i**2 / sum g**2), the squares g_i**2
    summed from the pair's e*e + o*o, and the scan reads hypot(e, o)
    divided by the float norm (_exact_unit).  Each entry of either lies
    within (N + 4) * 2**-53 of the exact unit entry, relative, but for
    squares below 2**-1022 that round as subnormals; _received keeps the
    largest square of a row at least 2**-900, so those move an entry by
    less than 2**-87.  The two rows thus lie within ~1e-15 of each other,
    so d**2 read on one is within ~1e-14 of d**2 read on the other, which
    is far inside the 9.9e-10 score gap: a row certified on the certificate's
    rows is the scan's on the scan's rows.  A zero row is zero in both.

    The rows left over are scanned together.  A row's scores do not depend
    on the other rows of its product, but BLAS takes a one-row product
    through another kernel whose rounding can settle an exact tie the
    other way (_best_columns), so a single leftover row of a larger batch
    is scanned twice over, as the scan's own tiles would.
    The arrays are read-only: run_mse's worker threads share the lookup.
    """

    radii: np.ndarray  # (M, N): the layers' c-vectors, the scheme's _radii
    bound2: np.ndarray  # (M,): rho_k**2 - _LOOKUP_MARGIN
    side: int  # grid cells per coordinate
    strides: np.ndarray  # (N-1,): cell index strides, as floats
    cells: np.ndarray  # (side**(N-1),): candidate layer per cell

    @classmethod
    def build(cls, radii, near) -> "_LayerLookup":
        """The lookup of the layers radii (M, N), N >= 2, whose distances to
        their nearest other layers are near (M,); it keeps radii itself."""
        m, n = radii.shape
        dims = n - 1
        rho = float(near.min()) / 2.0
        limit = int(_LOOKUP_CELLS ** (1.0 / dims))
        side = limit if rho * limit <= 4.0 else max(1, math.ceil(4.0 / rho))
        strides = side ** np.arange(dims - 1, -1, -1)
        cells = np.empty(side**dims, dtype=np.min_scalar_type(m - 1))
        # cells in chunks of 256, so the build's arrays stay small
        for start in range(0, cells.size, 256):
            index = np.arange(start, min(start + 256, cells.size))
            centres = (index[:, None] // strides % side + 0.5) / side
            # the unit vector over each centre, or nearest to it outside the sphere
            last = np.sqrt(np.maximum(1.0 - np.einsum("cn,cn->c", centres, centres), 0.0))
            points = np.concatenate((centres, last[:, None]), axis=1)
            points /= np.linalg.norm(points, axis=1)[:, None]
            cells[index] = _best_columns(points, radii.T)
        return cls(
            radii=radii,
            bound2=_frozen((near / 2.0) ** 2 - _LOOKUP_MARGIN),
            side=side,
            strides=_frozen(strides.astype(float)),
            cells=_frozen(cells),
        )

    def nearest(self, unit: np.ndarray, exact):
        """The scan's layer of each row, and the number of rows the scan ran
        on.  unit holds the rows' unit vectors (B, N), to within a few ulps,
        which is all the certificate needs (class docstring); exact(rows)
        gives the unit rows that the scan reads for the row indices rows,
        and is called only on the rows left uncertified."""
        q = unit[:, :-1] * self.side
        np.minimum(q, self.side - 1, out=q)  # a coordinate of 1.0
        np.floor(q, out=q)
        layers = self.cells.take((q @ self.strides).astype(np.intp)).astype(np.intp)
        d = self.radii.take(layers, axis=0)
        d -= unit  # c_k - u: the same squares as u - c_k
        rest = np.flatnonzero(~(np.einsum("bn,bn->b", d, d) < self.bound2.take(layers)))
        if rest.size == 0:
            return layers, 0
        rows = rest.repeat(2) if rest.size == 1 and len(unit) > 1 else rest
        layers[rest] = _best_columns(exact(rows), self.radii.T)[: rest.size]
        return layers, rows.size


@dataclass(frozen=True, eq=False)
class _LineLattices:
    """Closest-line table for a list of curves, stacked over curves.

    Curve k's box pre-image is the set of lines {2*pi*(u_hat*x + c*n)}; the
    line n lies at lattice point z @ basis[k] of the hyperplane orthogonal to
    u_hat, with n = z @ kernel[k] (kernel and basis being the reduced line
    lattice of CurveSpec._lattice, which the table folds into its arrays
    rather than keeps).  Received
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
    parameter, which the scheme's arc map takes to x.  That angle map keeps
    the 2*pi scale of basis[k]; the lattice search runs on the unit-scale
    rows basis[k] / (2*pi), the rows of the curve's spacing: gram and the
    Gram-Schmidt data belong to them.  Their shortest vector is the curve's
    line spacing, which the curve's lattice holds with the Gram-Schmidt
    data its search ran on, so spacing is cs.spacing by construction, and
    SchemeCode._spacings reads it here.  The Babai certificate is half of
    it: a rounded point closer than half the shortest lattice vector is the
    unique closest one.

    A batch of _BOUND_ROWS rows or more certifies most rows without f G f,
    f being the rounding residual t - rint(t): a row whose float ||f||**2
    times top_k lies below certified2 is certified, and f G f runs on the
    rest only.  top_k is the largest eigenvalue lambda_k of gram[k], from
    eigvalsh, times 1 + 1e-9.  Proof that such a row is one the float
    f G f certifies too.  Exactly, f G f <= lambda_k * ||f||**2.  The float
    f G f sums (N-1)**2 products of three factors, so it lies within
    ((N-1)**2 + 2) * 2**-53 * sum |f_i G_ij f_j| of the exact value, and
    that sum is at most ||f||**2 times the Frobenius norm of gram[k],
    itself at most sqrt(N-1) * lambda_k.  The float ||f||**2 is within
    N * 2**-53 of its value, relative, eigvalsh's lambda_k within a small
    multiple of 2**-53 * lambda_k (a symmetric eigenvalue moves by no more
    than the backward error), and the product rounds once.  For any N below
    ~100 these add up to less than 1e-10 relative, below the 1e-9 that
    top_k adds, so float f G f < float ||f||**2 * top_k < certified2.  The
    rows f G f runs on decide the certificate and the enumeration bound as
    they would if every row ran it: their operands are gathered in the C
    order of the whole batch's, so each row's f G f keeps its bits.
    The arrays are read-only: run_mse's worker threads share the table.
    """

    spacing: np.ndarray  # (M,): line spacing, the shortest unit-scale line vector
    fold: np.ndarray  # (M, N, N): angles -> (coefficients, position along the line)
    offset: np.ndarray  # (M, N-1): position shift per lattice coefficient
    gram: np.ndarray  # (M, N-1, N-1): Gram matrix of the unit-scale rows
    certified2: np.ndarray  # (M,): squared half spacing, less a margin
    top: np.ndarray  # (M,): top eigenvalue of gram, raised by a margin
    gso: tuple  # per curve (mu, norms2) tuples for the enumeration fallback

    @classmethod
    def build(cls, curves) -> "_LineLattices":
        kernel, gram, coeffs, gso, spacing = [], [], [], [], []
        for cs in curves:
            kern, basis, r, orth = cs._lattice
            rows = basis / _TWO_PI
            kernel.append(np.array(kern, dtype=np.int64))
            gram.append(rows @ rows.T)
            coeffs.append(np.linalg.solve(basis @ basis.T, basis).T)
            gso.append(orth)
            spacing.append(r)
        c = np.stack([cs.torus.c for cs in curves])
        u_hat = np.stack([cs.u_hat for cs in curves])
        along = u_hat / (_TWO_PI * np.einsum("kn,kn->k", u_hat, u_hat))[:, None]
        fold = np.concatenate((c[:, :, None] * np.stack(coeffs), (c * along)[:, :, None]), axis=2)
        spacing = _frozen(np.array(spacing))
        gram = np.stack(gram)
        return cls(
            spacing=spacing,
            fold=_frozen(fold),
            offset=_frozen(np.einsum("kmn,kn->km", np.stack(kernel), _TWO_PI * c * along)),
            gram=_frozen(gram),
            # the margins absorb rounding
            certified2=_frozen((spacing / 2.0) ** 2 * (1.0 - 1e-9)),
            top=_frozen(np.linalg.eigvalsh(gram)[:, -1] * (1.0 + 1e-9)),
            gso=tuple(gso),
        )

    def locate(self, layers: np.ndarray, angles: np.ndarray):
        """Curve parameter in [0, 1) of the closest line of curve layers[i]
        to the received angles angles[i] (B, N), in the wrapped flat metric,
        and the number of enumeration nodes visited.

        Babai rounding of the coefficients: a rounded point closer than half
        the shortest lattice vector is the closest line.  Other rows run an
        exact enumeration seeded with the rounded point's distance.  In a
        batch of _BOUND_ROWS rows or more, that distance f G f is computed
        only on the rows whose bound ||f||**2 * top_k does not already
        certify them (class docstring).
        """
        folded = np.einsum("bn,bnm->bm", angles, self.fold.take(layers, axis=0))
        t = folded[:, :-1]
        z = np.rint(t)
        f = t - z
        certified2 = self.certified2.take(layers)
        if len(layers) < _BOUND_ROWS:
            babai2 = np.einsum("bn,bnm,bm->b", f, self.gram.take(layers, axis=0), f)
        else:
            # f G f only on the rows that ||f||**2 * top_k does not certify;
            # the others keep 0, below their certificate
            norm2 = np.einsum("bm,bm->b", f, f)
            rows = np.flatnonzero(~(norm2 * self.top.take(layers) < certified2))
            babai2 = np.zeros(len(layers))
            gram = self.gram.take(layers[rows], axis=0)
            babai2[rows] = np.einsum("bn,bnm,bm->b", f[rows], gram, f[rows])
        nodes = 0
        for i in (babai2 >= certified2).nonzero()[0].tolist():
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
    angles, zero = _polar(ys)
    # every row is decoded; an undecodable row has layer 0 and zero angles,
    # the lattice origin, and its result is masked below
    layers = _nearest_layers(scheme, ys, counter)
    lines = scheme._line_lattices
    t, nodes = lines.locate(layers, angles)
    x_hat = scheme._from_curve(layers, t)
    b = len(ys)
    undecodable = np.zeros(b, dtype=bool) if zero is None else zero.all(axis=1)
    if counter is not None:
        n = scheme.dim
        rows = b - int(np.count_nonzero(undecodable))
        # polar data and unit magnitudes per row (_nearest_layers counts the
        # layer choice); the search and the inverse arc map per decodable row
        counter.add(b * (4 * n + n) + rows * (n + 1))
        counter.add(lines.mults(rows, nodes))
    if zero is None:
        return x_hat, layers, undecodable, np.zeros(b, dtype=bool)
    return (
        np.where(undecodable, 0.0, x_hat),
        np.where(undecodable, -1, layers),
        undecodable,
        zero.any(axis=1) & ~undecodable,
    )


def decode(scheme: SchemeCode, y, counter: OpCounter | None = None) -> DecodeResult:
    """Two-stage decoding of a single received vector."""
    x_hat, layers, undec, fb = decode_batch(scheme, [y], counter=counter)
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
    product argmax, scanned in _best_columns' bounded tiles, so the scan's
    memory stays small at any grid.  A golden-section pass around the best
    grid point sharpens the estimate to machine precision within one grid
    cell.

    It is the maximum-likelihood decoder only when a grid cell, an arc of
    total_length / grid on the curves, is shorter than the fold spacing
    2*pi*r of the curves (r the line spacing): a coarser grid can miss the
    fold that holds y and refine on another.  The floor grid >= 1000 does
    not ensure it: at N=3, delta=0.12 (total length ~7030) a cell at grid
    1000 is ~7.0 long against fold spacings from ~0.24, and a noiseless
    encode(0.3) comes back as 0.2993; the default grid's cells are ~0.07.
    """
    if not (_is_int(grid) and grid >= 1000):
        raise ValueError("grid must be an integer of at least 1000")
    ys = _received(scheme, ys)
    xs_grid = np.arange(grid) / grid
    codebook = encode_batch(scheme, xs_grid)  # (G, 2N)
    # a C-ordered (2N, G) copy: BLAS multiplies the scan's two-row tiles by
    # it faster than by the transposed view
    x0 = xs_grid[_best_columns(ys, np.ascontiguousarray(codebook.T))]
    # golden-section on f(x) = -<y, s(x)> over one grid cell
    out = _golden_section(
        lambda x: -np.einsum("bn,bn->b", ys, encode_batch(scheme, x)),
        np.maximum(x0 - 1.0 / grid, 0.0),
        np.minimum(x0 + 1.0 / grid, _BELOW_ONE),
    )
    return np.minimum(out, _BELOW_ONE)
