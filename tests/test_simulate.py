import concurrent.futures  # noqa: F401  (imported before any memory is traced)
import copy
import math
import tracemalloc

import numpy as np
import pytest

from toruscodes import (
    InfeasibleDesignError,
    LayerCodebook,
    SchemeCode,
    SimConfig,
    TorusSpec,
    awgn,
    ball_radius_to_spacing,
    block_rng,
    build_scheme,
    design_layers,
    design_scheme,
    estimate_small_ball,
    exact_small_ball_2d,
    format_mse_csv,
    format_tradeoff_csv,
    make_curve,
    run_mse,
    search_best_w,
    tradeoff_table,
)
from toruscodes import simulate

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def scheme():
    codebook = design_layers(3, 0.15)
    return design_scheme(codebook, 0.15, alpha=1.0)


def test_awgn_basics():
    rng = block_rng(5, 0)
    p = np.ones(6)
    assert np.array_equal(awgn(p, 0.0, rng), p)
    with pytest.raises(ValueError):
        awgn(p, -1.0, rng)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_awgn_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
        awgn(np.zeros(2), sigma, block_rng(5, 0))


def test_awgn_variance():
    rng = block_rng(99, 0)
    noise = awgn(np.zeros(1_000_000), 0.37, rng)
    assert abs(noise.var() - 0.37**2) < 0.01 * 0.37**2
    assert abs(noise.mean()) < 0.001


def test_rng_golden_vectors():
    # locks the generator family and the per-block stream layout
    g0 = block_rng(12345, 0)
    assert np.allclose(
        g0.random(3),
        [0.42075435954078155, 0.6531709678504624, 0.4331635821770152],
        rtol=0,
        atol=0,
    )
    assert np.allclose(
        g0.standard_normal(3),
        [-0.723757234083067, 1.029429635388788, 1.5707892726417907],
        rtol=0,
        atol=0,
    )
    g1 = block_rng(12345, 1)
    assert np.allclose(
        g1.random(3),
        [0.7670753428043188, 0.34429451850419435, 0.07088948678961426],
        rtol=0,
        atol=0,
    )


def test_awgn_stream_determinism():
    a = awgn(np.zeros(8), 1.0, block_rng(3, 2))
    b = awgn(np.zeros(8), 1.0, block_rng(3, 2))
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(sigma=-0.1, trials=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(sigma=0.1, trials=0, seed=1)
    # an integer or numpy sigma is stored as the float it stands for
    for sigma in (1, np.float32(0.5)):
        assert type(SimConfig(sigma=sigma, trials=10, seed=1).sigma) is float


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        SimConfig(sigma=sigma, trials=10, seed=1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("trials", 2.5, "trials must be an integer"),
        ("trials", True, "trials must be an integer"),
        ("trials", "10", "trials must be an integer"),
        ("seed", -1, "seed must be a nonnegative integer"),
        ("seed", 1.0, "seed must be a nonnegative integer"),
        ("seed", False, "seed must be a nonnegative integer"),
        ("seed", np.int64(-3), "seed must be a nonnegative integer"),
        ("sigma", True, "sigma must be a number"),
        ("sigma", "0.1", "sigma must be a number"),
    ],
)
def test_config_rejects_non_integer_trials_and_bad_seed(field, value, message):
    kwargs = {"sigma": 0.1, "trials": 10, "seed": 1, field: value}
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)


def test_scheme_file_derived_keys_are_not_read(scheme):
    # a curve is (c, u): length, spacing and the ball bounds in a scheme
    # file are written for readers and derived again on load
    clean = scheme.to_dict()
    derived = ("length", "spacing", "ball_lower", "ball_upper")
    missing, wrong = copy.deepcopy(clean), copy.deepcopy(clean)
    for item in missing["curves"]:
        for key in derived:
            del item[key]
    for item in wrong["curves"]:
        item.update(length=1.0, spacing=0.9, ball_lower=1.5, ball_upper=0.1)
    ref = SchemeCode.from_dict(clean)
    config = SimConfig(sigma=scheme.alpha * 0.15, trials=5000, seed=8)
    expected = run_mse(ref, config)
    assert expected.anomaly_rate > 0.0
    for d in (missing, wrong):
        loaded = SchemeCode.from_dict(d)
        assert loaded.to_dict() == clean
        assert np.array_equal(loaded._spacings, ref._spacings)
        assert loaded.ball_radius == ref.ball_radius
        assert run_mse(loaded, config) == expected


def test_run_mse_noiseless(scheme):
    res = run_mse(scheme, SimConfig(sigma=0.0, trials=5000, seed=11))
    assert res.mse <= 1e-18
    assert res.anomaly_rate == 0.0
    assert res.trials_flagged == 0


def test_run_mse_deterministic_and_worker_invariant(scheme):
    cfg = SimConfig(sigma=0.02, trials=9000, seed=17)
    a = run_mse(scheme, cfg)
    b = run_mse(scheme, cfg)
    c = run_mse(scheme, cfg, workers=4)
    assert a == b == c


@pytest.mark.parametrize("workers", [0, -2])
def test_run_mse_rejects_fewer_than_one_worker(scheme, workers):
    with pytest.raises(ValueError, match="workers"):
        run_mse(scheme, SimConfig(sigma=0.0, trials=10, seed=1), workers=workers)


@pytest.mark.parametrize("workers", [2.5, True, "2"])
def test_run_mse_rejects_non_integer_workers(scheme, workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_mse(scheme, SimConfig(sigma=0.0, trials=10, seed=1), workers=workers)


@pytest.mark.parametrize("workers, blocks", [(1, 50_000), (2, 5_000)])
def test_run_mse_memory_does_not_grow_with_trials(scheme, monkeypatch, workers, blocks):
    # with the block work stubbed out, what is left is run_mse's own
    # bookkeeping; a record kept per block (a list entry, or a ~1.6 KB
    # future submitted up front) would peak near 10 MB here.  The stub's
    # partials differ per block, so the mse also checks the block-order merge.
    monkeypatch.setattr(
        simulate, "_simulate_block", lambda scheme, sigma, seed, b, nb: (1.0 / (b + 1), 0.0, 0, 0)
    )
    config = SimConfig(sigma=0.0, trials=blocks * simulate.BLOCK, seed=1)
    tracemalloc.start()
    try:
        result = run_mse(scheme, config, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    expected = 0.0
    for b in range(blocks):
        expected += 1.0 / (b + 1)
    assert result.mse == expected / config.trials


def test_run_mse_accepts_numpy_integers(scheme):
    plain = run_mse(scheme, SimConfig(sigma=0.02, trials=5000, seed=4), workers=2)
    config = SimConfig(sigma=0.02, trials=np.int64(5000), seed=np.uint32(4))
    assert run_mse(scheme, config, workers=np.int32(2)) == plain


def test_mse_monotone_in_sigma(scheme):
    sigmas = [0.0, 0.01, 0.03, 0.06, 0.12, 0.25]
    results = [run_mse(scheme, SimConfig(sigma=s, trials=20_000, seed=5)) for s in sigmas]
    for lo, hi in zip(results, results[1:]):
        assert hi.mse >= lo.mse - (lo.mse_ci95 + hi.mse_ci95)


def test_oracle_never_loses_across_sweep():
    # the exhaustive decoder's mse stays at or below the two-stage decoder's
    from toruscodes import decode_batch, decode_exhaustive_batch, encode_batch

    torus = TorusSpec(np.ones(3) / SQ3)
    _, cs = search_best_w(torus, 0.05, w_max=100)
    s = build_scheme([cs])
    rng = np.random.default_rng(88)
    n = 2000
    xs = rng.random(n)
    base = encode_batch(s, xs)
    for sigma in (0.01, 0.05, 0.3):
        ys = base + sigma * rng.standard_normal((n, 6))
        sub, _, _, _ = decode_batch(s, ys)
        ml = decode_exhaustive_batch(s, ys, grid=20_000)
        e2 = (ml - xs) ** 2
        mse_ml = float(e2.mean())
        ci = 1.96 * math.sqrt(max(float((e2**2).mean()) - mse_ml**2, 0.0) / n)
        assert mse_ml <= float(np.mean((sub - xs) ** 2)) + ci


def test_anomaly_threshold_behavior(scheme):
    delta = scheme.ball_radius
    low = run_mse(scheme, SimConfig(sigma=0.15 * delta, trials=20_000, seed=3))
    high = run_mse(scheme, SimConfig(sigma=0.8 * delta, trials=20_000, seed=3))
    assert low.anomaly_rate < 1e-2
    assert high.anomaly_rate > 1e-1


def test_estimate_small_ball_2d_matches_exact():
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    cs = make_curve(t, [4, 5])
    est = estimate_small_ball(cs, samples=1_000_000)
    exact = exact_small_ball_2d(t, [4, 5])
    assert abs(est - exact) < 1e-3
    assert cs.ball_lower - 1e-9 <= est <= cs.ball_upper + 1e-9


def test_estimate_small_ball_monotone_in_samples():
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    cs = make_curve(t, [4, 5])
    e1 = estimate_small_ball(cs, samples=20_000)
    e2 = estimate_small_ball(cs, samples=40_000)
    assert e2 <= e1 + 1e-9
    with pytest.raises(ValueError):
        estimate_small_ball(cs, samples=5000)


@pytest.mark.parametrize("samples", [2e5, 20_000.0, True, "20000"])
def test_estimate_small_ball_rejects_non_integer_samples(samples):
    cs = make_curve(TorusSpec(np.array([1.0, 1.0]) / SQ2), [4, 5])
    with pytest.raises(ValueError, match="samples must be an integer of at least 1e4"):
        estimate_small_ball(cs, samples=samples)
    assert estimate_small_ball(cs, samples=np.int64(20_000)) == estimate_small_ball(
        cs, samples=20_000
    )


def test_estimate_small_ball_3d_sandwich():
    torus = TorusSpec(np.ones(3) / SQ3)
    _, cs = search_best_w(torus, 0.05, w_max=100)
    est = estimate_small_ball(cs, samples=200_000)
    assert cs.ball_lower - 1e-6 <= est <= cs.ball_upper + 1e-6


def test_ball_radius_to_spacing_roundtrip():
    t = TorusSpec(np.ones(3) / SQ3)
    r = ball_radius_to_spacing(t, 0.1)
    lower = 2 * t.c_min * math.sin(math.pi * r / (2 * t.c_min))
    assert abs(lower - 0.1) < 1e-12
    assert ball_radius_to_spacing(t, 2.0) is None
    for delta in (0.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be positive"):
            ball_radius_to_spacing(t, delta)


def test_tradeoff_table_small_grid():
    rows = tradeoff_table(3, [0.1, 0.15], w_max=300)
    assert len(rows) == 2
    for row in rows:
        assert row.length_single is not None and row.length_multi is not None
        assert row.length_multi >= row.length_single
    assert rows[0].length_single >= rows[1].length_single
    assert rows[0].length_multi >= rows[1].length_multi


def test_infeasible_design_and_tradeoff_na(monkeypatch):
    # a curve of ball radius delta needs 2*min(c) > delta: this layer hosts
    # none at 0.8, the central torus c = (1, 1)/sqrt(2) does
    book = LayerCodebook((TorusSpec(np.array([0.3, math.sqrt(0.91)])),), 0.0)
    with pytest.raises(InfeasibleDesignError, match="ball radius 0.8"):
        design_scheme(book, 0.8)
    # the table's multi-layer column is NA when its codebook hosts no curve:
    # refuse the designed codebook (min_sep 2*delta), keep the central
    # torus's (min_sep 0)
    design = simulate.design_scheme

    def refuse_multi_layer(codebook, delta, **kwargs):
        if codebook.min_sep > 0.0:
            raise InfeasibleDesignError(f"no layer supports a curve with ball radius {delta}")
        return design(codebook, delta, **kwargs)

    monkeypatch.setattr(simulate, "design_scheme", refuse_multi_layer)
    rows = tradeoff_table(2, [0.4], w_max=300)
    assert rows[0].length_single > 0.0 and rows[0].length_multi is None
    assert format_tradeoff_csv(rows).splitlines()[1].endswith(",NA")


def test_design_scheme_needs_layers_2_delta_apart():
    # the layers are 0.283 apart, and a scheme's ball radius is capped at
    # half the separation of its layers
    book = LayerCodebook((TorusSpec(np.array([0.8, 0.6])), TorusSpec(np.array([0.6, 0.8]))), 0.24)
    half = book.achieved_sep / 2.0
    assert design_scheme(book, half, w_max=300).ball_radius == pytest.approx(half)
    for delta in (half + 1e-12, 0.2):
        with pytest.raises(InfeasibleDesignError, match=r"below 2\*delta"):
            design_scheme(book, delta, w_max=300)


@pytest.mark.parametrize("w_max", [300.5, 300.0, True])
def test_design_and_tradeoff_reject_non_integer_w_max(w_max):
    book = design_layers(3, 0.2, min_coordinate=0.1)
    with pytest.raises(ValueError, match="w_max must be an integer >= 1"):
        design_scheme(book, 0.2, w_max=w_max)
    with pytest.raises(ValueError, match="w_max must be an integer >= 1"):
        tradeoff_table(3, [0.2], w_max=w_max)


def test_tradeoff_checks_dimension_as_integer():
    for n in (3.0, True, "3"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            tradeoff_table(n, [0.2], w_max=100)
    assert tradeoff_table(np.int64(3), [0.2], w_max=100) == tradeoff_table(3, [0.2], w_max=100)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_design_scheme_checks_alpha_before_the_search(monkeypatch, alpha):
    book = design_layers(3, 0.2, min_coordinate=0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("window search ran before alpha was checked")

    monkeypatch.setattr(simulate, "_search_layers", refuse)
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        design_scheme(book, 0.2, alpha=alpha)


def test_csv_formats(scheme):
    res = run_mse(scheme, SimConfig(sigma=0.01, trials=2000, seed=2))
    text = format_mse_csv(0.01, res)
    assert text.splitlines()[0] == "sigma,mse,ci,anomaly_rate"
    assert len(text.splitlines()) == 2
    rows = tradeoff_table(3, [0.2], w_max=100)
    csv = format_tradeoff_csv(rows)
    assert csv.splitlines()[0] == "delta,L_single,L_multi"
    value = csv.splitlines()[1].split(",")[1]
    assert float(value) > 0
