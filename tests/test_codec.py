import dataclasses
import inspect
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from toruscodes import (
    CurveSpec,
    OpCounter,
    SchemeCode,
    TorusSpec,
    build_scheme,
    decode,
    decode_batch,
    decode_exhaustive_batch,
    design_layers,
    design_scheme,
    embed,
    encode,
    encode_batch,
    fcc_target,
    lifting_winding,
    make_curve,
    projection_lattice_basis,
    reduce_to_box,
    search_best_w,
)
from toruscodes import codec, lattices
from toruscodes.codec import _LineLattices, _nearest_layers, _polar
from toruscodes.curves import OutOfRangeError

SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def scheme_m1():
    torus = TorusSpec(np.ones(3) / SQ3)
    _, cs = search_best_w(torus, 0.045, w_max=100)
    return build_scheme([cs], alpha=1.0)


@pytest.fixture(scope="module")
def scheme_multi():
    codebook = design_layers(3, 0.12)
    return design_scheme(codebook, 0.12, alpha=1.0)


def test_scheme_fields(scheme_multi):
    s = scheme_multi
    assert s.n_layers >= 3
    assert s.ball_radius >= 0.12  # the design target
    assert abs(s.breakpoints[-1] - 1.0) <= 1e-12
    assert np.all(np.diff(s.breakpoints) > 0)
    assert abs(s.total_length - s.lengths.sum()) < 1e-9 * s.total_length
    # locus consistency: layers are at least twice the protection radius apart
    for i in range(s.n_layers):
        for j in range(i + 1, s.n_layers):
            d = np.linalg.norm(s.curves[i].torus.c - s.curves[j].torus.c)
            assert d >= 2 * s.ball_radius - 1e-12


def test_scheme_needs_curves_of_one_dimension(scheme_multi):
    with pytest.raises(ValueError, match="at least one curve"):
        build_scheme([])
    flat = CurveSpec(TorusSpec(np.ones(2) / math.sqrt(2)), [1, 3])
    with pytest.raises(ValueError, match="same dimension"):
        build_scheme([scheme_multi.curves[0], flat])


def test_partition_bijection(scheme_multi):
    s = scheme_multi
    lows = np.concatenate(([0.0], s.breakpoints[:-1]))
    # each interval start maps to local 0; interval end approaches local 1
    for k in range(s.n_layers):
        x = lows[k]
        kk = int(np.searchsorted(s.breakpoints, x, side="right"))
        assert kk == k
        width = s.breakpoints[k] - lows[k]
        assert (x - lows[k]) / width == 0.0
        x_end = s.breakpoints[k] - 1e-12
        assert int(np.searchsorted(s.breakpoints, x_end, side="right")) == k
        assert (x_end - lows[k]) / width < 1.0


def test_encode_examples(scheme_multi):
    s = scheme_multi
    from toruscodes import curve_point

    # each subinterval starts at the first point after its curve's seam arc
    g0, g1 = s.guard / s.lengths[0], s.guard / s.lengths[1]
    y0 = encode(s, 0.0)
    assert np.allclose(y0, s.alpha * curve_point(s.curves[0], g0 / 2.0))
    y_b = encode(s, float(s.breakpoints[0]))
    assert np.allclose(y_b, s.alpha * curve_point(s.curves[1], g1 / 2.0), atol=1e-9)
    # without a guard the subintervals start at the curves' closure points
    closed = build_scheme(s.curves, alpha=s.alpha)
    y0 = encode(closed, 0.0)
    assert np.allclose(y0, s.alpha * curve_point(s.curves[0], 0.0))
    y_b = encode(closed, float(closed.breakpoints[0]))
    assert np.allclose(y_b, s.alpha * curve_point(s.curves[1], 0.0), atol=1e-9)
    with pytest.raises(ValueError):
        encode(s, 1.0)
    with pytest.raises(ValueError):
        encode(s, -0.2)


def test_encode_single_layer_is_plain_curve(scheme_m1):
    s = scheme_m1
    xs = np.linspace(0, 0.999, 57)
    from toruscodes import curve_point

    assert np.allclose(encode_batch(s, xs), s.alpha * curve_point(s.curves[0], xs))


def test_encode_batch_matches_per_row_curve_point(scheme_multi, rng):
    # the gathered encoder against the formula it implements, one row at a
    # time, including every breakpoint and the value just below it
    s = scheme_multi
    from toruscodes import curve_point

    assert s.n_layers >= 3 and s.guard > 0.0
    bp = s.breakpoints[:-1]
    xs = np.concatenate([rng.random(500), [0.0], bp, np.nextafter(bp, 0.0)])
    lows = np.concatenate(([0.0], s.breakpoints[:-1]))
    ref = np.empty((xs.size, 2 * s.dim))
    for i, x in enumerate(xs):
        k = int(np.searchsorted(s.breakpoints, x, side="right"))
        local = min((x - lows[k]) / (s.breakpoints[k] - lows[k]), np.nextafter(1.0, 0.0))
        g = s.guard / s.lengths[k]
        ref[i] = s.alpha * curve_point(s.curves[k], g / 2.0 + (1.0 - g) * local)
    assert np.array_equal(encode_batch(s, xs), ref)


def test_energy_constraint(scheme_multi, rng):
    s2 = build_scheme(scheme_multi.curves, alpha=2.5)
    xs = rng.random(500)
    norms = np.linalg.norm(encode_batch(s2, xs), axis=1)
    assert np.max(np.abs(norms - 2.5)) < 1e-9


def test_extract_polar_roundtrip(scheme_multi, rng):
    # the angles of an encoded point, scaled by its layer's c, are its box point
    s = scheme_multi
    xs = rng.random(200)
    ys = encode_batch(s, xs)
    gamma, ang, zero = _polar(ys)
    assert not zero.any()
    ks = np.searchsorted(s.breakpoints, xs, side="right")
    for i in range(200):
        cs = s.curves[ks[i]]
        assert np.allclose(gamma[i], cs.torus.c, atol=1e-9)
        lows = np.concatenate(([0.0], s.breakpoints[:-1]))
        local = (xs[i] - lows[ks[i]]) / (s.breakpoints[ks[i]] - lows[ks[i]])
        g = s.guard / cs.length
        local = g / 2.0 + (1.0 - g) * local
        box = reduce_to_box(cs.torus, 2 * math.pi * local * cs.u_hat)
        assert np.allclose(ang[i] * cs.torus.c, box, atol=1e-9)


def test_extract_polar_signs_and_zero():
    gamma, ang, zero = _polar(np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(gamma, [1.0, 1.0]) and not zero.any()
    assert abs(ang[0]) < 1e-15
    assert abs(ang[1] - math.pi / 2.0) < 1e-15
    # lower half-plane recovers an angle in (pi, 2 pi)
    _, ang2, _ = _polar(np.array([0.5, -0.5, 1.0, 0.0]))
    assert math.pi < ang2[0] < 2 * math.pi
    # a zero pair takes angle 0 and is masked, whatever the sign of its zeros
    for y in ([0.0, 0.0, 1.0, 0.0], [-0.0, -0.0, 1.0, 0.0]):
        gamma3, ang3, zero3 = _polar(np.array(y))
        assert gamma3[0] == 0.0 and ang3[0] == 0.0
        assert zero3.tolist() == [True, False]


def test_nearest_layer(scheme_multi, rng):
    s = scheme_multi
    radii = np.stack([cs.torus.c for cs in s.curves])
    assert np.array_equal(_nearest_layers(s, radii), np.arange(s.n_layers))
    mid = (s.curves[0].torus.c + s.curves[1].torus.c)[None, :]
    assert _nearest_layers(s, mid)[0] in (0, 1)  # tie resolved deterministically
    assert _nearest_layers(s, mid)[0] == _nearest_layers(s, mid)[0]
    # an all-zero row gets layer 0, which decode_batch masks as undecodable
    assert _nearest_layers(s, np.zeros((1, 3)))[0] == 0
    _, layer, undec, _ = decode_batch(s, np.zeros((1, 6)))
    assert layer.tolist() == [-1] and undec.tolist() == [True]
    xs = rng.random(300)
    gamma, _, _ = _polar(encode_batch(s, xs))
    ks = np.searchsorted(s.breakpoints, xs, side="right")
    assert np.array_equal(_nearest_layers(s, gamma), ks)


def _tie_scheme():
    """Two layers, (0.6, 0.8) and (0.8, 0.6), equally close to their midpoint."""
    tori = [TorusSpec(np.array([0.6, 0.8])), TorusSpec(np.array([0.8, 0.6]))]
    return build_scheme([make_curve(t, [3, 4]) for t in tori])


def test_nearest_layer_tie_prefers_first():
    s = _tie_scheme()
    mid = (s._radii[0] + s._radii[1]) / 2.0
    assert _nearest_layers(s, mid[None, :])[0] == 0
    y = np.array([[mid[0], 0.0, mid[1], 0.0]])  # pair magnitudes mid
    assert decode_batch(s, y)[1].tolist() == [0]


@pytest.mark.parametrize("which", [3, 4, "tie"])
def test_tiled_layer_scan_matches_one_block_scan(designed_schemes, which):
    # tiles of t rows, the last one short, give every row the layer that one
    # (B, M) score block gives it, exact ties and zero rows included; the
    # fewest rows a tile takes is 2
    s = _tie_scheme() if which == "tie" else designed_schemes[which]
    rng = np.random.default_rng(s.n_layers)
    gamma = _polar(encode_batch(s, rng.random(310)) + 0.1 * rng.standard_normal((310, 2 * s.dim)))[0]
    gamma[:: 1 if which == "tie" else 2] = (s._radii[0] + s._radii[-1]) / 2.0
    gamma[3] = 0.0
    for tile, t in ((1, 2), (7 * s.n_layers, 7), (100 * s.n_layers, 100)):
        for b in (0, 1, t - 1, t, t + 1, 2 * t + 1, 3 * t + 2):
            with mock.patch.object(codec, "_LAYER_TILE", tile):
                assert np.array_equal(_nearest_layers(s, gamma[:b]), _one_block_scan(s, gamma[:b]))


def _one_block_scan(s, gamma):
    norms = np.linalg.norm(gamma, axis=1)
    return ((gamma / np.where(norms > 0.0, norms, 1.0)[:, None]) @ s._radii.T).argmax(axis=1)


def test_tiled_layer_scan_keeps_ties_at_full_tiles():
    # the tie scheme's default tile is 32768 rows: a full tile plus a one-row
    # tail, and two full tiles plus one, settle every exact tie as one
    # (B, M) score block does
    s = _tie_scheme()
    t = codec._LAYER_TILE // s.n_layers
    mid = (s._radii[0] + s._radii[1]) / 2.0
    for b in (t + 1, 2 * t + 1):
        gamma = np.tile(mid, (b, 1))
        gamma[::5] = s._radii[0]
        assert np.array_equal(_nearest_layers(s, gamma), _one_block_scan(s, gamma))


@pytest.mark.parametrize("n", [3, 4])
def test_decode_unchanged_by_power_of_two_scaling(designed_schemes, n):
    # the layer choice squares the pair magnitudes; from 2**600 on those
    # squares overflow (at 2**1023 the coordinates lie next to the float
    # maximum) and at 2**-600 they underflow, which must not move a layer or
    # x_hat, nor the grid oracle's x_hat
    s = designed_schemes[n]
    rng = np.random.default_rng([n, 600])
    ys = encode_batch(s, rng.random(2000))
    ys += 0.5 * s.alpha * 0.12 * rng.standard_normal(ys.shape)
    x_hat, layer = decode_batch(s, ys)[:2]
    ml = decode_exhaustive_batch(s, ys[:60], grid=1000)
    for k in (-600, 600, 1000, 1023):
        scaled = ys * 2.0**k
        mixed = ys.copy()
        mixed[::3] = scaled[::3]  # rows out of range next to rows in range
        for batch in (scaled, mixed):
            got_x, got_layer = decode_batch(s, batch)[:2]
            assert np.array_equal(got_layer, layer)
            assert np.array_equal(got_x, x_hat)
            assert np.array_equal(decode_exhaustive_batch(s, batch[:60], grid=1000), ml)
        assert decode(s, scaled[0]) == decode(s, ys[0])
    assert decode(s, 1e160 * encode(s, 0.77)).x_hat == decode(s, encode(s, 0.77)).x_hat


@pytest.mark.parametrize("n", [3, 4])
def test_decoders_take_rows_at_the_float_maximum(designed_schemes, n):
    # rows scaled to max|y| = 1.7e308: their pair magnitudes overflow
    # np.hypot and their dot products with the oracle's codebook overflow.
    # The scale is no power of two, so x_hat may move by rounding only; the
    # oracle's golden section settles where its objective's rounding noise
    # hides the flat minimum, within about sqrt(eps)
    s = designed_schemes[n]
    rng = np.random.default_rng([n, 308])
    ys = encode_batch(s, rng.random(300))
    ys += 0.5 * s.alpha * 0.12 * rng.standard_normal(ys.shape)
    huge = ys / np.abs(ys).max(axis=1, keepdims=True) * 1.7e308
    x_hat, layer = decode_batch(s, ys)[:2]
    ml = decode_exhaustive_batch(s, ys[:60], grid=1000)
    mixed = ys.copy()
    mixed[::3] = huge[::3]
    for batch in (huge, mixed):
        got_x, got_layer = decode_batch(s, batch)[:2]
        assert np.array_equal(got_layer, layer)
        assert np.abs(got_x - x_hat).max() <= 1e-12
        assert np.abs(decode_exhaustive_batch(s, batch[:60], grid=1000) - ml).max() <= 1e-8
    y = encode(s, 0.77)
    got = decode(s, y / np.abs(y).max() * 1.7e308)
    assert got.layer == decode(s, y).layer and abs(got.x_hat - 0.77) < 1e-12


def _decode_on_torus(cs, boxes, counter=None):
    """decode_batch of the one-curve, guard-0 scheme on the torus points at
    box points boxes (B, N): x_hat is the parameter of the closest line."""
    return decode_batch(build_scheme([cs]), embed(cs.torus, boxes), counter=counter)[0]


def test_decode_on_torus_exact(rng, scheme_m1):
    cs = scheme_m1.curves[0]
    xs = rng.random(100)
    boxes = reduce_to_box(cs.torus, 2 * math.pi * xs[:, None] * cs.u_hat)
    assert np.abs(_decode_on_torus(cs, boxes) - xs).max() < 1e-9


def test_decode_on_torus_orthogonal_perturbation(rng, scheme_m1):
    cs = scheme_m1.curves[0]
    direction = cs.u_hat / np.linalg.norm(cs.u_hat)
    xs = rng.uniform(0.1, 0.9, size=50)
    perp = rng.standard_normal((50, 3))
    perp -= np.outer(perp @ direction, direction)
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    eps = 0.4 * cs.spacing
    boxes = reduce_to_box(cs.torus, 2 * math.pi * xs[:, None] * cs.u_hat + eps * perp)
    got = _decode_on_torus(cs, boxes)
    assert np.abs(got - xs).max() <= eps / cs.length + 1e-9


def _flat_distance_profile(cs, point, xs):
    diffs = point[None, :] - 2 * math.pi * xs[:, None] * cs.u_hat[None, :]
    periods = cs.torus.box_periods
    wrapped = diffs - periods * np.round(diffs / periods)
    return np.einsum("bn,bn->b", wrapped, wrapped)


def test_decode_on_torus_vs_dense_grid(rng, scheme_m1):
    cs = scheme_m1.curves[0]
    grid = np.arange(1_000_000) / 1_000_000
    points = rng.uniform(0, 1, size=(20, 3)) * cs.torus.box_periods
    for p, x_hat in zip(points, _decode_on_torus(cs, points)):
        prof = _flat_distance_profile(cs, p, grid)
        best = float(prof.min())
        got = float(_flat_distance_profile(cs, p, np.array([x_hat]))[0])
        assert got <= best + 1e-9


def test_decode_roundtrip(scheme_m1, scheme_multi, rng):
    for s in (scheme_m1, scheme_multi):
        xs = rng.random(1000)
        ys = encode_batch(s, xs)
        x_hat, layers, undec, fb = decode_batch(s, ys)
        assert not undec.any() and not fb.any()
        assert np.max(np.abs(x_hat - xs)) < 1e-9
        true_k = np.searchsorted(s.breakpoints, xs, side="right")
        assert np.array_equal(layers, true_k)


def test_decode_scalar_matches_batch(scheme_multi, rng):
    # every row runs the same path, so an undecodable all-zero row and a
    # row with one zero pair leave the others' results bit for bit as they
    # are row by row
    s = scheme_multi
    xs = rng.random(20)
    ys = encode_batch(s, xs) + 0.01 * rng.standard_normal((20, 2 * s.dim))
    ys[3] = 0.0
    ys[7, 2:4] = 0.0
    batch = decode_batch(s, ys)
    assert batch[2].tolist() == [i == 3 for i in range(20)]
    assert batch[3].tolist() == [i == 7 for i in range(20)]
    for i in range(20):
        res = decode(s, ys[i])
        assert res.x_hat == batch[0][i]
        assert res.layer == batch[1][i]
        assert res.undecodable == batch[2][i]
        assert res.phase_fallback == batch[3][i]


def test_decode_batch_empty(scheme_multi):
    s = scheme_multi
    out = decode_batch(s, np.empty((0, 2 * s.dim)))
    assert [a.shape for a in out] == [(0,)] * 4
    assert [a.dtype for a in out] == [np.float64, np.int64, np.bool_, np.bool_]


def test_decode_small_noise_quantile(scheme_m1, rng):
    s = scheme_m1
    sigma = s.alpha * s.ball_radius / 30.0
    n = 10_000
    xs = rng.random(n)
    ys = encode_batch(s, xs) + sigma * rng.standard_normal((n, 2 * s.dim))
    x_hat, _, _, _ = decode_batch(s, ys)
    within = np.abs(x_hat - xs) <= 4.0 * sigma / (s.alpha * s.total_length)
    assert within.mean() >= 0.99


def test_non_finite_inputs_rejected(scheme_multi):
    with pytest.raises(ValueError):
        encode(scheme_multi, float("nan"))
    with pytest.raises(ValueError):
        encode_batch(scheme_multi, np.array([0.2, float("inf")]))
    bad = np.full((1, 2 * scheme_multi.dim), np.nan)
    with pytest.raises(ValueError):
        decode_batch(scheme_multi, bad)


@pytest.mark.parametrize(
    "bad",
    [[True], ["0.3"], np.array([0.3], dtype=object), [0.3 + 0.0j]],
    ids=["bool", "str", "object", "complex"],
)
def test_codec_refuses_arrays_of_non_numbers(scheme_multi, bad):
    # numpy would read a boolean as 1.0 and the string "0.3" as 0.3
    s = scheme_multi
    with pytest.raises(ValueError, match="encoder input must be numbers"):
        encode_batch(s, bad)
    if not isinstance(bad[0], float):
        with pytest.raises(ValueError, match="encoder input must be numbers"):
            encode(s, bad[0])
    rows = np.resize(np.asarray(bad), (1, 2 * s.dim))
    for decoder in (decode_batch, decode_exhaustive_batch):
        with pytest.raises(ValueError, match="received vectors must be numbers"):
            decoder(s, rows)
    with pytest.raises(ValueError, match="received vectors must be numbers"):
        decode(s, rows[0])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
def test_codec_takes_integer_and_float_arrays(scheme_multi, dtype):
    s = scheme_multi
    assert np.array_equal(encode_batch(s, np.zeros(2, dtype=dtype)), encode_batch(s, np.zeros(2)))
    assert np.array_equal(encode(s, dtype(0)), encode(s, 0.0))
    rows = np.arange(1, 2 * s.dim + 1, dtype=dtype)[None, :]
    for got, want in zip(decode_batch(s, rows), decode_batch(s, rows.astype(float))):
        assert np.array_equal(got, want)
    assert decode(s, rows[0]) == decode(s, rows[0].astype(float))
    ml = decode_exhaustive_batch(s, rows.astype(float), grid=1000)
    assert np.array_equal(decode_exhaustive_batch(s, rows, grid=1000), ml)


def test_decode_undecodable(scheme_multi):
    res = decode(scheme_multi, np.zeros(2 * scheme_multi.dim))
    assert res.undecodable
    assert res.x_hat == 0.0
    assert res.layer == -1


def test_decode_phase_fallback(scheme_multi):
    y = encode(scheme_multi, 0.4)
    y[0] = y[1] = 0.0  # kill one pair entirely
    res = decode(scheme_multi, y)
    assert res.phase_fallback and not res.undecodable


def test_decode_exhaustive_matches_noiseless(scheme_m1, rng):
    s = scheme_m1
    xs = rng.random(30)
    ys = encode_batch(s, xs)
    ml = decode_exhaustive_batch(s, ys, grid=20_000)
    assert np.max(np.abs(ml - xs)) < 1e-6
    one = decode_exhaustive_batch(s, ys[:1], grid=20_000)
    assert abs(one[0] - xs[0]) < 1e-6


def test_decode_exhaustive_batch_checks_its_input(scheme_m1):
    s = scheme_m1
    ys = encode_batch(s, np.array([0.3]))
    with pytest.raises(ValueError, match="finite"):
        decode_exhaustive_batch(s, np.full_like(ys, np.nan), grid=1000)
    with pytest.raises(ValueError, match=r"shape \(B, 6\), got \(1, 8\)"):
        decode_exhaustive_batch(s, np.ones((1, 8)), grid=1000)
    with pytest.raises(ValueError, match=r"shape \(B, 6\), got \(6,\)"):
        decode_exhaustive_batch(s, ys[0], grid=1000)
    for grid in (1000.5, 1000.0, True, "1000", 999):
        with pytest.raises(ValueError, match="grid"):
            decode_exhaustive_batch(s, ys, grid=grid)
    assert abs(decode_exhaustive_batch(s, ys, grid=np.int64(1000))[0] - 0.3) < 1e-6


def test_decode_exhaustive_is_ml(scheme_m1, rng):
    # under heavy noise the exhaustive decoder never loses in squared error
    s = scheme_m1
    n = 400
    sigma = 0.5 * s.alpha
    xs = rng.random(n)
    ys = encode_batch(s, xs) + sigma * rng.standard_normal((n, 2 * s.dim))
    sub, _, _, _ = decode_batch(s, ys)
    ml = decode_exhaustive_batch(s, ys, grid=20_000)
    mse_sub = float(np.mean((sub - xs) ** 2))
    mse_ml = float(np.mean((ml - xs) ** 2))
    assert mse_ml <= mse_sub + 0.05 * mse_sub + 1e-6


def test_operation_count_envelope(scheme_multi, rng):
    s = scheme_multi
    xs = rng.random(50)
    ys = encode_batch(s, xs) + 0.005 * rng.standard_normal((50, 2 * s.dim))
    n = s.dim
    m = s.n_layers
    for y in ys:
        counter = OpCounter()
        res = decode(s, y, counter=counter)
        u1 = int(np.sum(np.abs(s.curves[res.layer].u)))
        assert counter.mults <= 32 * (m * n + n * u1)


def test_decode_on_torus_random_curves(rng):
    # cross-validate the piecewise fold decoder against a dense grid over
    # assorted dimensions, eccentricities, and zero-bearing windings
    from conftest import random_primitive, random_torus

    cases = 0
    while cases < 30:
        n = int(rng.integers(2, 5))
        t = random_torus(rng, n, floor=0.1)
        u = random_primitive(rng, n, lo=-6, hi=6)
        try:
            cs = make_curve(t, u)
        except Exception:
            continue
        p = rng.uniform(0, 1, size=n) * t.box_periods
        x_hat = _decode_on_torus(cs, p[None, :])[0]
        grid = np.arange(200_000) / 200_000
        prof = _flat_distance_profile(cs, p, grid)
        got = float(_flat_distance_profile(cs, p, np.array([x_hat]))[0])
        assert got <= float(prof.min()) + 1e-9
        cases += 1


@st.composite
def _curve_and_box_point(draw):
    n = draw(st.integers(2, 4))
    c = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    u = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    g = 0
    for x in u:
        g = math.gcd(g, abs(x))
    if g == 0:
        u[0], g = 1, 1
    torus = TorusSpec(c / np.linalg.norm(c))
    try:
        cs = make_curve(torus, [x // g for x in u])
    except OutOfRangeError:  # spacing beyond the small-ball window
        cs = None
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)))
    return cs, frac * torus.box_periods


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(_curve_and_box_point())
def test_decode_on_torus_attains_grid_minimum(case):
    # windings with zeros and |u_1| != 1 exercise the general Bezout kernel
    cs, p = case
    assume(cs is not None)
    x_hat = _decode_on_torus(cs, p[None, :])[0]
    assert 0.0 <= x_hat < 1.0
    grid = np.arange(200_000) / 200_000
    best = float(_flat_distance_profile(cs, p, grid).min())
    got = float(_flat_distance_profile(cs, p, np.array([x_hat]))[0])
    assert got <= best + 1e-9


def test_decode_on_torus_deep_hole_runs_enumeration(scheme_m1):
    # the circumcentre of a lattice triangle of the near-hexagonal line
    # lattice lies farther than half a spacing from every line, so Babai
    # rounding cannot certify it and the enumeration decides
    cs = scheme_m1.curves[0]
    rows = 2 * math.pi * projection_lattice_basis(cs.torus.c, cs.u).rows
    coeffs = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7) if i or j])
    vecs = coeffs @ rows
    order = np.argsort(np.linalg.norm(vecs, axis=1))
    v1 = vecs[order[0]]
    v2 = next(v for v in vecs[order[1:]] if abs(np.cross(v1, v)).max() > 1e-9 and v @ v1 > 0)
    edges = np.stack([v1, v2])
    hole = np.linalg.solve(edges @ edges.T, 0.5 * np.einsum("ij,ij->i", edges, edges)) @ edges
    lattice = np.concatenate([np.zeros((1, 3)), vecs])
    assert np.linalg.norm(lattice - hole, axis=1).min() > 1.05 * math.pi * cs.spacing

    p = np.mod(hole + 2 * math.pi * 0.3 * cs.u_hat, cs.torus.box_periods)
    deep, on_curve = OpCounter(), OpCounter()
    x_hat = _decode_on_torus(cs, p[None, :], counter=deep)[0]
    on = reduce_to_box(cs.torus, 2 * math.pi * 0.3 * cs.u_hat)
    _decode_on_torus(cs, on[None, :], counter=on_curve)
    assert deep.mults > on_curve.mults  # enumeration nodes are counted
    grid = np.arange(1_000_000) / 1_000_000
    best = float(_flat_distance_profile(cs, p, grid).min())
    got = float(_flat_distance_profile(cs, p, np.array([x_hat]))[0])
    assert got <= best + 1e-9


def test_decode_batch_picks_closest_line_at_high_noise():
    # at sigma = alpha*delta many rows lie farther than half a line spacing
    # from their rounded lattice point, so the enumeration decides them;
    # the oracle is a brute-force minimum over a +-3 coefficient box
    from toruscodes.lattices import _line_lattice

    s = design_scheme(design_layers(4, 0.12, min_coordinate=0.06), 0.12)
    rng = np.random.default_rng(31)
    ys = encode_batch(s, rng.random(3000))
    ys += s.alpha * 0.12 * rng.standard_normal(ys.shape)
    noisy, clean = OpCounter(), OpCounter()
    x_hat, layer, undec, _ = decode_batch(s, ys, counter=noisy)
    decode_batch(s, encode_batch(s, rng.random(len(ys))), counter=clean)
    assert not undec.any()
    assert noisy.mults > clean.mults  # noiseless rows never enumerate

    # the received angles, computed here rather than by the code under test
    ang = np.arctan2(ys[:, 1::2], ys[:, 0::2])
    ang[ang < 0.0] += 2 * math.pi
    box = np.stack([s.curves[k].torus.c for k in layer]) * ang
    offsets = np.array(np.meshgrid(*[np.arange(-3, 4)] * 3, indexing="ij")).reshape(3, -1).T
    expected = np.empty(len(ys))
    moved = 0
    for k in np.unique(layer):
        rows = np.flatnonzero(layer == k)
        cs = s.curves[k]
        kernel, basis = _line_lattice(cs.torus.c, cs.u)
        t = np.linalg.solve(basis @ basis.T, basis @ box[rows].T).T
        z0 = np.rint(t)
        cand = z0[:, None, :] + offsets[None, :, :]
        diff = (t[:, None, :] - cand) @ basis
        best = np.argmin(np.einsum("bon,bon->bo", diff, diff), axis=1)
        z = cand[np.arange(rows.size), best]
        assert np.abs(z - z0).max() < 3  # the box holds each minimum
        moved += int(np.any(z != z0, axis=1).sum())
        lines = z.astype(np.int64) @ np.array(kernel)
        resid = box[rows] - 2 * math.pi * cs.torus.c * lines
        xl = np.mod(resid @ cs.u_hat / (2 * math.pi * (cs.u_hat @ cs.u_hat)), 1.0)
        g = s.guard / cs.length
        local = np.clip((xl - g / 2.0) / (1.0 - g), 0.0, np.nextafter(1.0, 0.0))
        low = s.breakpoints[k - 1] if k else 0.0
        expected[rows] = low + local * (s.breakpoints[k] - low)
    assert moved > 0  # some Babai points were not the closest
    assert np.max(np.abs(x_hat - expected)) < 1e-9


def _reference_decode_batch(s, ys):
    """The box-point formulation of decode_batch, row by row: the pair
    magnitudes and angles (a zero pair takes angle 0), the normalised argmax over the layers, box point theta/gamma*c, then the
    closest line of the box point, its position along the line and the seam
    map.  Returns (x_hat, layer, undecodable, phase_fallback, mults)."""
    from toruscodes.lattices import (
        LatticeBasis,
        _closest_in_ball,
        _gram_schmidt,
        _line_lattice,
        shortest_vector,
    )

    n, m = s.dim, s.dim - 1
    gamma = np.hypot(ys[:, 0::2], ys[:, 1::2])
    ang = np.arctan2(ys[:, 1::2], ys[:, 0::2])
    ang = np.where(gamma > 0.0, np.where(ang < 0.0, ang + 2 * math.pi, ang), 0.0)
    undecodable = np.all(gamma == 0.0, axis=1)
    fallback = np.any(gamma == 0.0, axis=1) & ~undecodable
    norms = np.linalg.norm(gamma, axis=1)
    radii = np.stack([cs.torus.c for cs in s.curves])
    layers = np.argmax((gamma / np.where(norms > 0.0, norms, 1.0)[:, None]) @ radii.T, axis=1)
    mults = len(ys) * (4 * n + s.n_layers * n + n)
    below_one = np.nextafter(1.0, 0.0)
    x_hat = np.zeros(len(ys))
    lattices = {}
    for i in np.flatnonzero(~undecodable):
        k = int(layers[i])
        cs = s.curves[k]
        if k not in lattices:
            kernel, basis = _line_lattice(cs.torus.c, cs.u)
            gram = basis @ basis.T
            half = shortest_vector(LatticeBasis(basis)).norm / 2.0
            lattices[k] = (np.array(kernel), gram, np.linalg.solve(gram, basis).T,
                           half * half * (1.0 - 1e-9), _gram_schmidt(basis))
        kernel, gram, coeffs, certified2, (mu, norms2) = lattices[k]
        box = ang[i] * cs.torus.c
        t = box @ coeffs
        z = np.rint(t)
        babai2 = (t - z) @ gram @ (t - z)
        if babai2 >= certified2:
            found, _, visited = _closest_in_ball(mu, norms2, t.tolist(), babai2 * (1.0 + 1e-9))
            mults += visited * n
            if found is not None:
                z = np.array(found, dtype=float)
        resid = box - 2 * math.pi * cs.torus.c * (z.astype(np.int64) @ kernel)
        xl = resid @ cs.u_hat / (2 * math.pi * (cs.u_hat @ cs.u_hat))
        xl = min(xl - math.floor(xl), below_one)
        g = s.guard / cs.length
        local = min(max((xl - g / 2.0) / (1.0 - g), 0.0), below_one)
        low = s.breakpoints[k - 1] if k else 0.0
        x_hat[i] = min(low + local * (s.breakpoints[k] - low), below_one)
        mults += n * m + m * m + m + m * n + 2 * n + n + 1
    return x_hat, np.where(undecodable, -1, layers), undecodable, fallback, mults


@pytest.fixture(scope="module")
def designed_schemes():
    """The N=3 and N=4 schemes that design gives at delta 0.12."""
    return {n: design_scheme(design_layers(n, 0.12, min_coordinate=0.06), 0.12) for n in (3, 4)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("noise", [0.0, 0.25, 1.0, 4.0])
def test_decode_batch_matches_box_point_reference(designed_schemes, n, noise):
    # decode_batch works on the received angles with the curve radii folded
    # into its table; the box-point formulation does the same arithmetic up
    # to float64 rounding, fixed here at 1e-15 on x_hat.  noise is sigma in
    # units of alpha*delta.
    s = designed_schemes[n]
    rng = np.random.default_rng([n, int(noise * 4)])
    ys = encode_batch(s, rng.random(400))
    ys += noise * s.alpha * 0.12 * rng.standard_normal(ys.shape)
    ys[:10, 2:4] = 0.0  # one zero pair
    ys[10:20, 2:4] = -0.0  # one zero pair, whose arctan2 is pi, not 0
    ys[20:25] = 0.0  # undecodable
    counter = OpCounter()
    x_hat, layer, undec, fb = decode_batch(s, ys, counter=counter)
    ref_x, ref_layer, ref_undec, ref_fb, ref_mults = _reference_decode_batch(s, ys)
    assert np.array_equal(layer, ref_layer)
    assert np.array_equal(undec, ref_undec) and undec[20:25].all() and undec.sum() == 5
    assert np.array_equal(fb, ref_fb) and fb[:20].all()
    assert counter.mults == ref_mults
    assert np.max(np.abs(x_hat - ref_x)) <= 1e-15


@pytest.mark.parametrize(
    "field, value", [("alpha", True), ("alpha", "2.5"), ("guard", True), ("guard", "0.1")]
)
def test_scheme_numbers_are_checked_by_the_scheme(scheme_multi, field, value):
    # the constructor owns the rule, so build_scheme, from_dict and a direct
    # SchemeCode(...) all refuse a bool or a string
    fields = {"curves": scheme_multi.curves, "alpha": 1.0, "guard": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        SchemeCode(**fields)
    assert type(SchemeCode(scheme_multi.curves, np.float64(2.0), 0).guard) is float


def test_cached_scheme_arrays_are_read_only(scheme_multi):
    # run_mse's worker threads share these; a write must fail, not race.
    # The decoder table is built on the first decode, not at load.
    s = SchemeCode.from_dict(scheme_multi.to_dict())
    assert "_line_lattices" not in s.__dict__
    encode(s, 0.3)
    assert "_line_lattices" not in s.__dict__
    decode(s, encode(s, 0.3))
    table = s._line_lattices
    arrays = [s._arcs, s._spacings, s._radii, s._u_hats]
    arrays += [table.fold, table.offset, table.gram, table.certified2]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    mu, norms2 = table.gso[0]
    assert isinstance(mu, tuple) and isinstance(norms2, tuple)


def test_first_decode_reduces_each_curve_once(scheme_multi):
    # the table takes the kernel, the basis and the shortest vector from
    # one exact LLL per curve; the curves' own spacings are not needed
    s = SchemeCode.from_dict(scheme_multi.to_dict())
    y = encode(s, 0.3)
    with mock.patch.object(lattices, "_lll", wraps=lattices._lll) as lll:
        decode(s, y)
    assert lll.call_count == s.n_layers


def test_first_decode_runs_one_gram_schmidt_per_curve(scheme_multi):
    # the table's enumeration data and its shortest-vector search share one
    # Gram-Schmidt per curve
    s = SchemeCode.from_dict(scheme_multi.to_dict())
    y = encode(s, 0.3)
    with mock.patch.object(lattices, "_gram_schmidt", wraps=lattices._gram_schmidt) as gs:
        with mock.patch.object(codec, "_gram_schmidt", gs):
            decode(s, y)
    assert gs.call_count == s.n_layers


def test_line_lattices_is_a_closest_line_table(scheme_multi):
    # the arc map between x and the curves belongs to the scheme alone
    assert "seam" not in [f.name for f in dataclasses.fields(_LineLattices)]
    assert list(inspect.signature(_LineLattices.build).parameters) == ["curves"]
    # the arc table is built on first use, not at load
    assert "_arcs" not in SchemeCode.from_dict(scheme_multi.to_dict()).__dict__


@pytest.mark.parametrize("guard", [0.24, 0.0])
def test_inverse_arc_map_undoes_forward_map(scheme_multi, rng, guard):
    s = build_scheme(scheme_multi.curves, alpha=scheme_multi.alpha, guard=guard)
    assert s.n_layers > 1
    xs = rng.random(20_000)
    layers, t = s._to_curve(xs)
    assert np.array_equal(layers, s._layers_of(xs))
    assert np.abs(s._from_curve(layers, t) - xs).max() <= 2.2e-16
    # the ends of the kept arc go to the ends of each subinterval
    ks = np.arange(s.n_layers)
    g = s.guard / s.lengths
    lows = np.concatenate(([0.0], s.breakpoints[:-1]))
    assert np.array_equal(s._from_curve(ks, g / 2.0), lows)
    assert np.abs(s._from_curve(ks, 1.0 - g / 2.0) - s.breakpoints).max() <= 2.2e-16


@pytest.fixture(scope="module")
def lifting_schemes():
    """Single-curve N=4 schemes whose ||u||_1 are 20 (w=3) and 13 996 (w=30)."""
    torus = TorusSpec(np.ones(4) / 2.0)
    return {
        w: build_scheme([make_curve(torus, lifting_winding(fcc_target(), np.ones(4), w))])
        for w in (3, 30)
    }


def test_decode_memory_bounded_in_curve_length(lifting_schemes, rng):
    peaks = []
    for s in lifting_schemes.values():
        sigma = s.alpha * s.ball_radius / 4.0
        ys = encode_batch(s, rng.random(4096)) + sigma * rng.standard_normal((4096, 2 * s.dim))
        tracemalloc.start()
        try:
            decode_batch(s, ys)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16e6
    assert max(peaks) <= 1.5 * min(peaks)


def test_decode_memory_does_not_grow_with_layer_count():
    # the layer scan of 4096 rows over ~2000 layers would need a 64 MB score
    # block at once; in tiles it stays near the decode's other arrays
    rng = np.random.default_rng(2000)
    c = rng.uniform(0.1, 1.0, size=(2000, 4))
    c /= np.linalg.norm(c, axis=1)[:, None]
    s = build_scheme([CurveSpec(TorusSpec(row), np.array([7, 11, 13, 17])) for row in c])
    ys = encode_batch(s, rng.random(4096)) + 0.01 * rng.standard_normal((4096, 8))
    decode_batch(s, ys)  # builds the closest-line table
    tracemalloc.start()
    try:
        decode_batch(s, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_operation_count_independent_of_curve_length(lifting_schemes, rng):
    l1 = [int(np.abs(s.curves[0].u).sum()) for s in lifting_schemes.values()]
    assert max(l1) >= 100 * min(l1)
    per_vector = []
    for s in lifting_schemes.values():
        ys = encode_batch(s, rng.random(200))  # noiseless rows are certified
        counter = OpCounter()
        decode_batch(s, ys, counter=counter)
        per_vector.append(counter.mults / 200)
    assert per_vector[0] == per_vector[1]


def test_decode_batch_rejects_misshapen_input(scheme_multi):
    s = scheme_multi
    with pytest.raises(ValueError, match=r"shape \(B, 6\), got \(6,\)"):
        decode_batch(s, encode(s, 0.3))
    with pytest.raises(ValueError, match=r"shape \(B, 6\), got \(5, 8\)"):
        decode_batch(s, np.ones((5, 8)))


def test_four_dimensional_scheme_roundtrip(rng):
    from toruscodes import search_best_w, ball_radius_to_spacing

    t4 = TorusSpec(np.ones(4) / 2.0)
    r_min = ball_radius_to_spacing(t4, 0.1)
    _, cs = search_best_w(t4, r_min, w_max=50)
    s = build_scheme([cs])
    xs = rng.random(300)
    x_hat, _, undec, _ = decode_batch(s, encode_batch(s, xs))
    assert not undec.any()
    assert np.max(np.abs(x_hat - xs)) < 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_roundtrip_long_general_windings(n):
    # windings with |u_i| up to 3e5 and u_1 != 1: a line-lattice row that
    # drifts along u by many periods loses the digits of its projection, and
    # noiseless decoding then misses by up to a whole fold
    from conftest import random_primitive, random_torus

    rng = np.random.default_rng(7)
    curves = [
        make_curve(random_torus(rng, n), random_primitive(rng, n, lo=-300_000, hi=300_000))
        for _ in range(8)
    ]
    s = build_scheme(curves)
    xs = rng.random(4096)
    x_hat, _, undec, _ = decode_batch(s, encode_batch(s, xs))
    assert not undec.any()
    assert np.max(np.abs(x_hat - xs)) <= 1e-9


def test_locus_separation(scheme_multi, rng):
    s = scheme_multi
    xs = rng.random(400)
    ys = encode_batch(s, xs)
    ks = np.searchsorted(s.breakpoints, xs, side="right")
    # cross-layer pairs stay at least twice the protection radius apart
    diff2 = np.sum((ys[:, None, :] - ys[None, :, :]) ** 2, axis=2)
    cross = ks[:, None] != ks[None, :]
    if cross.any():
        min_cross = math.sqrt(float(diff2[cross].min()))
        assert min_cross >= 2 * s.alpha * s.ball_radius - 1e-9
    # same-layer pairs further than two flat fold gaps along the curve keep
    # at least the curve's small-ball lower bound
    lows = np.concatenate(([0.0], s.breakpoints[:-1]))
    for k in np.unique(ks):
        cs = s.curves[k]
        idx = np.flatnonzero(ks == k)
        if idx.size < 2:
            continue
        local = (xs[idx] - lows[k]) / (s.breakpoints[k] - lows[k])
        g = s.guard / cs.length
        arc = (1.0 - g) * np.abs(local[:, None] - local[None, :]) * cs.length
        arc = np.minimum(arc, cs.length - arc)  # closed curve
        far = arc >= 2 * (2 * math.pi * cs.spacing)
        if far.any():
            pair = np.sqrt(diff2[np.ix_(idx, idx)][far])
            assert pair.min() >= s.alpha * cs.ball_lower - 1e-9


def test_seam_guard_keeps_subinterval_ends_apart(scheme_multi):
    # a step of delta/2 back along the tangent from a subinterval's start
    # crosses the closure of a closed curve, but stays inside a guarded seam
    delta = 0.12
    guarded = scheme_multi
    closed = build_scheme(guarded.curves, alpha=guarded.alpha)
    assert guarded.guard == 2.0 * delta and closed.guard == 0.0
    lows = np.concatenate(([0.0], guarded.breakpoints[:-1]))
    for k, cs in enumerate(guarded.curves):
        width = guarded.breakpoints[k] - lows[k]
        for s, far_end in ((guarded, False), (closed, True)):
            a = s.guard / cs.length / 2.0  # curve parameter of the start
            angles = 2 * math.pi * a * cs.u_hat / cs.torus.c
            tangent = np.empty(2 * s.dim)
            tangent[0::2] = -cs.u_hat * np.sin(angles)
            tangent[1::2] = cs.u_hat * np.cos(angles)
            tangent /= np.linalg.norm(tangent)
            y = encode(s, float(lows[k])) - s.alpha * (delta / 2.0) * tangent
            res = decode(s, y)
            assert res.layer == k
            err = abs(res.x_hat - lows[k])
            if far_end:
                assert err > 0.9 * width
            else:
                assert err < 1e-3 * width


def test_scheme_without_guard_loads_closed(scheme_multi, rng):
    s = scheme_multi
    d = s.to_dict()
    assert d["guard"] == s.guard
    del d["guard"]
    old = SchemeCode.from_dict(d)
    ref = build_scheme(s.curves, alpha=s.alpha)
    assert old.guard == 0.0
    xs = rng.random(500)
    ys = encode_batch(old, xs)
    assert np.array_equal(ys, encode_batch(ref, xs))
    noisy = ys + 0.01 * rng.standard_normal(ys.shape)
    assert np.array_equal(decode_batch(old, noisy)[0], decode_batch(ref, noisy)[0])
    for bad in (-1e-3, float(s.lengths.min()), float("nan")):
        with pytest.raises(ValueError):
            build_scheme(s.curves, guard=bad)


def test_scheme_json_roundtrip(scheme_multi, rng):
    s = scheme_multi
    again = SchemeCode.from_dict(json.loads(json.dumps(s.to_dict())))
    assert again.n_layers == s.n_layers
    assert abs(again.total_length - s.total_length) < 1e-9
    xs = rng.random(50)
    assert np.allclose(encode_batch(again, xs), encode_batch(s, xs), atol=1e-12)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_scheme_rejects_non_finite_or_non_positive_alpha(scheme_multi, alpha):
    d = scheme_multi.to_dict()
    d["alpha"] = alpha
    with pytest.raises(ValueError, match="alpha"):
        SchemeCode.from_dict(d)
    with pytest.raises(ValueError, match="alpha"):
        build_scheme(scheme_multi.curves, alpha=alpha)
