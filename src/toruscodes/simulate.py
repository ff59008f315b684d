"""AWGN Monte Carlo harness, fold-distance sampling, tradeoff tables.

Randomness contract: all draws come from numpy's counter-based Philox
generator.  Trials are processed in fixed blocks of 4096; block b uses the
stream Philox(seed).jumped(b), and partial results merge in block order.
Results are therefore bit-identical for any worker count, and the raw
streams are locked by a golden-vector test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .codec import (
    SchemeCode,
    _check_alpha,
    _golden_section,
    _numbers,
    build_scheme,
    decode_batch,
    encode_batch,
)
from .curves import (  # noqa: F401
    CurveSpec,
    _search_layers,
    ball_radius_to_spacing,
    default_target,
    search_best_w,
)
from .layers import LayerCodebook, design_layers
from .lattices import project_orthogonal
from .torus import TorusSpec, _is_int, _number, intra_torus_distance

# search_best_w stays importable from here, though design_scheme calls
# _search_layers: perfbench/traced.py wraps it by name.

__all__ = [
    "SimConfig",
    "SimResult",
    "TradeoffRow",
    "InfeasibleDesignError",
    "BLOCK",
    "awgn",
    "block_rng",
    "run_mse",
    "estimate_small_ball",
    "design_scheme",
    "tradeoff_table",
    "format_tradeoff_csv",
    "format_mse_csv",
]


class InfeasibleDesignError(ValueError):
    """The codebook cannot host curves at the requested radius: its layers
    are closer than twice the radius, or no layer can host such a curve."""

BLOCK = 4096  # trials per RNG block; changing it changes the streams
_IN_FLIGHT_PER_WORKER = 2  # blocks submitted but not yet merged, per worker

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run of the uniform source: noise level, trial count,
    seed."""

    sigma: float
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", _number(self.sigma, "sigma"))
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")
        if not _is_int(self.trials):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    mse: float
    mse_ci95: float
    anomaly_rate: float
    trials_flagged: int

    def __post_init__(self):
        if self.mse < 0.0 or not (0.0 <= self.anomaly_rate <= 1.0):
            raise ValueError("invalid simulation result")


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Deterministic per-block stream: Philox(seed) jumped ahead block times."""
    return np.random.Generator(np.random.Philox(seed).jumped(block))


def awgn(point, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add iid zero-mean Gaussian noise, standard deviation sigma per
    coordinate.  sigma and the entries of point must be numbers, not
    booleans or strings."""
    sigma = _number(sigma, "sigma")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    point = _numbers(point, "point")
    if sigma == 0.0:
        return point + 0.0
    # point + sigma * noise in the noise's own array: the same two roundings
    noise = rng.standard_normal(point.shape)
    noise *= sigma
    noise += point
    return noise


def _simulate_block(scheme: SchemeCode, sigma: float, seed: int, block: int, nb: int):
    rng = block_rng(seed, block)
    xs = rng.random(nb)
    ys = encode_batch(scheme, xs)
    ys = awgn(ys, sigma, rng)
    x_hat, layers, undec, _ = decode_batch(scheme, ys)

    err = x_hat - xs
    # the decoded layer k is x's own when x lies in k's subinterval
    # [low_k, breakpoint_k), the one _layers_of finds; an undecodable row's
    # layer -1 reads the last layer's and is wrong
    right = (scheme._arcs[:, 0].take(layers) <= xs) & (xs < scheme.breakpoints.take(layers))
    right &= ~undec
    # wrong-fold heuristic: scaled parameter error beyond the noise ball plus
    # half a line spacing means the decoder left the correct fold.  It only
    # decides where the layer is right, so the decoded layer's spacing is
    # the true layer's there
    spacing = scheme._spacings.take(layers)
    thresh = 3.0 * sigma * math.sqrt(2 * scheme.dim) + spacing * scheme.alpha / 2.0
    anomalies = (np.abs(err) * scheme.total_length * scheme.alpha > thresh) | ~right
    e2 = err * err
    return (
        float(e2.sum()),
        float((e2 * e2).sum()),
        int(anomalies.sum()),
        int(undec.sum()),
    )


def _block_results(block, count: int, workers: int):
    """block(b) for b < count, in block order; with workers > 1, on a thread
    pool with at most _IN_FLIGHT_PER_WORKER calls per worker pending."""
    if workers == 1:
        yield from map(block, range(count))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for b in range(count):
            if len(pending) == workers * _IN_FLIGHT_PER_WORKER:
                yield pending.popleft().result()
            pending.append(pool.submit(block, b))
        while pending:
            yield pending.popleft().result()


def run_mse(scheme: SchemeCode, config: SimConfig, workers: int = 1) -> SimResult:
    """Monte Carlo estimate of E[(X - X_hat)^2] under AWGN.

    Deterministic given (scheme, config), independent of workers: trials are
    split into fixed blocks with per-block streams and merged in block order,
    each as it arrives (_block_results), so memory does not grow with trials.
    """
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    n = config.trials

    def block(b: int):
        return _simulate_block(scheme, config.sigma, config.seed, b, min(BLOCK, n - b * BLOCK))

    sum_e2 = 0.0
    sum_e4 = 0.0
    anomalies = 0
    flagged = 0
    # block order: reproducible float accumulation
    for p in _block_results(block, (n + BLOCK - 1) // BLOCK, workers):
        sum_e2 += p[0]
        sum_e4 += p[1]
        anomalies += p[2]
        flagged += p[3]
    mse = sum_e2 / n
    var_e2 = max(sum_e4 / n - mse * mse, 0.0)
    ci = 1.96 * math.sqrt(var_e2 / n)
    return SimResult(
        mse=mse,
        mse_ci95=ci,
        anomaly_rate=anomalies / n,
        trials_flagged=flagged,
    )


def estimate_small_ball(cs: CurveSpec, samples: int = 200_000) -> float:
    """Sampling estimate of the curve's small-ball radius.

    The curve is homogeneous: the chord between parameters x and x' depends
    only on psi = x - x', so fold distances reduce to a 1-d scan of
    D(psi) = 2*sqrt(sum c_i^2 sin^2(pi u_i psi)) over psi in (0, 1/2].  The
    scan (plus local golden refinement) locates the nearest distinct fold;
    the radius reported is the chord at half the fold's flat gap, measured
    perpendicular to the curve direction.  Converges from above: finer grids
    only expose closer folds.

    A guard band psi * length > 2 * (2*pi*spacing) excludes the trivial
    along-curve neighborhood, whose chord at the band edge is about twice
    the nearest-fold distance.

    Requires a curve that actually winds: for near-trivial windings (for
    example (1, -1) on an eccentric torus) the closure shortcut is always
    nearer than the perpendicular line gap, no distinct fold exists, and
    the scan raises instead of reporting a curvature-limited radius.
    """
    if not (_is_int(samples) and samples >= 10_000):
        raise ValueError(f"samples must be an integer of at least 1e4, got {samples!r}")
    torus = cs.torus
    c = torus.c
    u = cs.u.astype(float)
    u_hat_norm = float(np.linalg.norm(cs.u_hat))

    psi_min = 2.0 * cs.spacing / u_hat_norm  # arc threshold 2*(2*pi*spacing)
    if psi_min >= 0.45:
        raise ValueError("curve too short to separate folds from the diagonal")
    j0 = max(1, int(math.ceil(psi_min * 2 * samples)))
    js = np.arange(j0, samples + 1)
    psis = js / (2.0 * samples)

    def chord2(psi):
        s = np.sin(math.pi * np.multiply.outer(np.asarray(psi), u))
        return 4.0 * np.sum((c * s) ** 2, axis=-1)

    d2 = chord2(psis)

    # candidate basins: best grid points, deduplicated by adjacency
    order = np.argsort(d2, kind="stable")[: 64 * 8]
    kept: list[int] = []
    for idx in order:
        if all(abs(idx - k) > 2 for k in kept):
            kept.append(int(idx))
        if len(kept) >= 8:
            break

    step = 1.0 / (2.0 * samples)
    centres = psis[kept]
    best = math.inf
    # all basins refined at once
    for psi_star in _golden_section(
        chord2, np.maximum(centres - step, psi_min), np.minimum(centres + step, 0.5)
    ).tolist():
        # recover the fold's lattice translate and its perpendicular gap
        n_vec = np.round(u * psi_star)
        if not np.any(n_vec):
            continue
        gap = _TWO_PI * project_orthogonal(c * n_vec, cs.u_hat)
        gap_norm = float(np.linalg.norm(gap))
        if gap_norm < 1e-12:
            continue
        cand = float(intra_torus_distance(torus, gap / 2.0, np.zeros(torus.dim)))
        best = min(best, cand)
    if not math.isfinite(best):
        raise RuntimeError(
            "no distinct fold approaches the curve inside the scan window; "
            "the winding is too small for a fold-limited radius"
        )
    return best


def design_scheme(
    codebook: LayerCodebook,
    delta: float,
    alpha: float = 1.0,
    w_max: int = 10_000,
) -> SchemeCode:
    """Design one curve per layer with small-ball radius at least delta.

    Each layer's curve is the one search_best_w finds for the spacing that
    the radius needs on that layer; one batched search (_search_layers)
    finds them for all layers at once.  Layers that cannot host a feasible
    curve are skipped.  Raises if the layers are closer than 2*delta (the
    constructor's slack of 1e-12), since the scheme's ball radius is capped
    at half their separation, or if no layer remains.  Each curve keeps a
    seam arc of 2*delta unused, so the two ends of its subinterval are as
    far apart as neighboring folds.  A bad alpha raises before any search.
    """
    _check_alpha(alpha)
    if codebook.achieved_sep < 2.0 * delta - 1e-12:
        raise InfeasibleDesignError(
            f"codebook layers are {codebook.achieved_sep} apart, below 2*delta = {2.0 * delta}"
        )
    hosts, r_mins = [], []
    for torus in codebook.layers:
        r_min = ball_radius_to_spacing(torus, delta)
        if r_min is not None:
            hosts.append(torus)
            r_mins.append(r_min)
    curves = [found[1] for found in _search_layers(hosts, r_mins, w_max) if found is not None]
    if not curves:
        raise InfeasibleDesignError(f"no layer supports a curve with ball radius {delta}")
    return build_scheme(curves, alpha=alpha, guard=2.0 * delta)


@dataclass(frozen=True)
class TradeoffRow:
    delta: float
    length_single: float | None
    length_multi: float | None
    layers: int


def _scheme_codebook(n: int, delta: float) -> LayerCodebook:
    """The layer codebook a scheme of radius delta is designed on: the grid
    greedy at separation 2*delta, keeping only layers with every coordinate
    above delta/2, since a torus can host a curve of ball radius delta only
    when 2*min(c) > delta.  A dimension without a built-in target lattice
    raises ValueError before any layer is designed."""
    default_target(n)
    return design_layers(n, delta, min_coordinate=delta / 2.0)


def tradeoff_table(n: int, deltas, w_max: int = 10_000) -> list[TradeoffRow]:
    """Total curve length versus small-ball radius, multi-layer and single.

    For each delta: the layers of _scheme_codebook(n, delta) host one curve
    each, whose spacing target comes from inverting the small-ball lower
    bound; the largest lifting window meeting the target gives the curve.
    The single-torus baseline runs the same procedure on the central torus
    c = (1, ..., 1)/sqrt(n).  Infeasible entries are None.  A dimension
    without a built-in target lattice raises ValueError before any layer is
    designed.
    """
    if not _is_int(n):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("need dimension >= 2")
    central = LayerCodebook(layers=(TorusSpec(np.full(n, 1.0 / math.sqrt(n))),), min_sep=0.0)
    rows = []
    for delta in deltas:
        delta = float(delta)
        book = _scheme_codebook(n, delta)
        totals = []
        for layers in (central, book):
            try:
                lengths = design_scheme(layers, delta, w_max=w_max).lengths
            except InfeasibleDesignError:
                totals.append(None)
                continue
            # a plain left-to-right float sum; np.sum (and sum() on
            # Python >= 3.12) round differently, and the table is byte-locked
            total = 0.0
            for length in lengths:
                total += float(length)
            totals.append(total)
        rows.append(
            TradeoffRow(
                delta=delta,
                length_single=totals[0],
                length_multi=totals[1],
                layers=book.size,
            )
        )
    return rows


def _fmt(x) -> str:
    return "NA" if x is None else format(x, ".17g")


def format_tradeoff_csv(rows) -> str:
    lines = ["delta,L_single,L_multi"]
    for row in rows:
        lines.append(
            f"{_fmt(row.delta)},{_fmt(row.length_single)},{_fmt(row.length_multi)}"
        )
    return "\n".join(lines) + "\n"


def format_mse_csv(sigma: float, result: SimResult) -> str:
    header = "sigma,mse,ci,anomaly_rate"
    row = ",".join(
        format(v, ".17g")
        for v in (sigma, result.mse, result.mse_ci95, result.anomaly_rate)
    )
    return header + "\n" + row + "\n"
