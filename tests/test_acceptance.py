"""Acceptance suite: one pass/fail line per criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each criterion prints before asserting, so failures still report.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from toruscodes import (
    OpCounter,
    SimConfig,
    TorusSpec,
    build_scheme,
    decode,
    decode_batch,
    decode_exhaustive_batch,
    design_layers,
    design_scheme,
    embed,
    encode_batch,
    estimate_small_ball,
    exact_small_ball_2d,
    format_tradeoff_csv,
    hexagonal_target,
    intra_torus_distance,
    lifting_dual_basis,
    lifting_winding,
    packing_density,
    project_orthogonal,
    projection_lattice_basis,
    run_mse,
    search_best_w,
    shortest_vector,
    tradeoff_table,
    unit_ball_volume,
    ball_radius_to_spacing,
)
from toruscodes.torus import _sinc
from conftest import random_primitive, random_torus

DATA = Path(__file__).parent / "data"
HEX_DENSITY = math.pi / math.sqrt(12.0)
SQ3 = math.sqrt(3.0)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_chord_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4):
        t = random_torus(rng, n)
        u = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        v = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        formula = intra_torus_distance(t, u, v)
        chord = np.linalg.norm(embed(t, u) - embed(t, v), axis=1)
        worst = max(worst, float(np.max(np.abs(formula - chord))))
    report(
        "criterion 1a (chord identity)",
        worst < 1e-12,
        f"max |formula - chord| = {worst:.3e} over 3x1e5 pairs [{time.time()-t0:.1f}s]",
    )


def test_criterion_1_distance_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(102)
    checked = 0
    ok = True
    for n in (2, 3, 4):
        t = random_torus(rng, n)
        u = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        v = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        flat = np.linalg.norm(u - v, axis=1)
        keep = flat <= math.pi * t.c_min  # bound validity window
        chord = intra_torus_distance(t, u[keep], v[keep])
        d = flat[keep]
        lower = _sinc(d / (2 * t.c_min)) * d
        upper = _sinc(d / 2.0) * d
        ok &= bool(
            np.all(lower - 1e-12 <= chord)
            and np.all(chord <= upper + 1e-12)
            and np.all(lower >= (2 / math.pi) * d - 1e-12)
            and np.all(upper <= d + 1e-12)
        )
        checked += int(keep.sum())
    report(
        "criterion 1b (distance bound sandwich)",
        ok and checked > 10_000,
        f"chain held on {checked} in-window pairs [{time.time()-t0:.1f}s]",
    )


def test_criterion_1_density_identity():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    worst_bound = 0.0
    for n in (3, 4):
        for _ in range(50):
            c = rng.uniform(0.5, 1.5, size=n)
            u = random_primitive(rng, n)
            basis = projection_lattice_basis(c, u)
            dens = packing_density(basis)
            r = shortest_vector(basis).norm
            center = r ** (n - 1) * np.linalg.norm(c * u) / (2 ** (n - 1) * np.prod(c))
            ident = unit_ball_volume(n - 1) * float(center)
            worst_rel = max(worst_rel, abs(dens - ident) / ident)
            if n == 3:
                worst_bound = max(worst_bound, dens - HEX_DENSITY)
    report(
        "criterion 1c (projection density identity and bound)",
        worst_rel < 1e-9 and worst_bound <= 1e-9,
        f"max rel dev {worst_rel:.2e}, max excess over hex {worst_bound:.2e} "
        f"[{time.time()-t0:.1f}s]",
    )


def test_criterion_1_projector():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        n_hat = rng.standard_normal(4)
        u_hat = rng.standard_normal(4)
        other = rng.standard_normal(4)
        p = project_orthogonal(n_hat, u_hat)
        q = project_orthogonal(other, u_hat)
        scale = float(np.linalg.norm(n_hat))
        worst = max(
            worst,
            float(np.linalg.norm(project_orthogonal(p, u_hat) - p)) / scale,
            abs(float(p @ u_hat)) / (scale * float(np.linalg.norm(u_hat))),
            # self-adjointness: <Pn, m> = <n, Pm>
            abs(float(p @ other) - float(n_hat @ q))
            / (scale * float(np.linalg.norm(other))),
        )
    report(
        "criterion 1d (projector residuals)",
        worst < 1e-12,
        f"max residual {worst:.2e} over 1e3 instances [{time.time()-t0:.1f}s]",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_gram_convergence():
    t0 = time.time()
    target = hexagonal_target()
    expect = target.gram()
    rng = np.random.default_rng(0)  # seed fixed with the c draws below
    cs = [np.ones(3)]
    for _ in range(2):
        cs.append(np.concatenate(([1.0], rng.uniform(0.8, 1.25, size=2))))
    ok = True
    finals = []
    for c in cs:
        devs = [
            float(np.max(np.abs(lifting_dual_basis(target, c, w).gram() / w**2 - expect)))
            for w in (5, 10, 20, 40, 80)
        ]
        ok &= all(a > b for a, b in zip(devs, devs[1:])) and devs[-1] < 0.02
        finals.append(devs[-1])
    report(
        "criterion 2a (scaled Gram convergence)",
        ok,
        f"d_80 = {[f'{d:.4f}' for d in finals]} all decreasing, < 0.02 "
        f"[{time.time()-t0:.1f}s]",
    )


def test_criterion_2_closed_form_windings():
    t0 = time.time()
    target = hexagonal_target(scale=2.0)
    ok = True
    for w in range(1, 21):
        u = lifting_winding(target, np.ones(3), w)
        ok &= tuple(u) == (1, -2 * w, 2 * w * math.floor(w * SQ3) - w)
    report(
        "criterion 2b (closed-form windings w=1..20)",
        ok,
        f"integer equality on all 20 windows [{time.time()-t0:.1f}s]",
    )


def test_criterion_2_density_at_w50():
    t0 = time.time()
    u = lifting_winding(hexagonal_target(), np.ones(3), 50)
    dens = packing_density(projection_lattice_basis(np.ones(3), u))
    gap = abs(dens - HEX_DENSITY)
    report(
        "criterion 2c (projection density at w=50)",
        gap < 0.05,
        f"density {dens:.5f}, gap {gap:.4f} from {HEX_DENSITY:.4f} "
        f"[{time.time()-t0:.1f}s]",
    )


# ---------------------------------------------------------------- criterion 3


def _designed_curves():
    """Twenty deterministic curves across 2-d and 3-d tori.

    Near-trivial windings (||u||_1 < 8) are excluded: such curves are
    curvature-limited rather than fold-limited, so a fold-distance sample
    does not exist for them.
    """
    curves = []
    for delta in (0.10, 0.16):
        for torus in design_layers(2, delta).layers:
            r_min = ball_radius_to_spacing(torus, delta)
            if r_min is None:
                continue
            found = search_best_w(torus, r_min, w_max=300)
            if found and np.sum(np.abs(found[1].u)) >= 8:
                curves.append(found[1])
    for delta in (0.10, 0.14):
        for torus in design_layers(3, delta).layers[:9]:
            r_min = ball_radius_to_spacing(torus, delta)
            if r_min is None:
                continue
            found = search_best_w(torus, r_min, w_max=300)
            if found and np.sum(np.abs(found[1].u)) >= 8:
                curves.append(found[1])
    return curves[:20]


def test_criterion_3_small_ball_sandwich_and_exact():
    t0 = time.time()
    curves = _designed_curves()
    assert len(curves) == 20
    samples = 200_000
    ok_sandwich = True
    worst_2d = 0.0
    n2 = 0
    for cs in curves:
        est = estimate_small_ball(cs, samples=samples)
        tol = 2.0 * (1.0 / (2 * samples)) * cs.length  # 2 * step * stretch
        ok_sandwich &= cs.ball_lower - tol <= est <= cs.ball_upper + tol
        if cs.torus.dim == 2:
            exact = exact_small_ball_2d(cs.torus, cs.u)
            est6 = estimate_small_ball(cs, samples=1_000_000)
            worst_2d = max(worst_2d, abs(est6 - exact))
            n2 += 1
    report(
        "criterion 3 (fold-distance sampling)",
        ok_sandwich and worst_2d < 1e-3 and n2 >= 5,
        f"20 curves in sandwich; max 2-d gap vs exact {worst_2d:.2e} over {n2} "
        f"curves at 1e6 samples [{time.time()-t0:.1f}s]",
    )


# ---------------------------------------------------------------- criterion 4


@pytest.fixture(scope="module")
def scheme_m1():
    torus = TorusSpec(np.ones(3) / SQ3)
    r_min = ball_radius_to_spacing(torus, 0.1)
    _, cs = search_best_w(torus, r_min, w_max=200)
    return build_scheme([cs], alpha=1.0)


@pytest.fixture(scope="module")
def scheme_multi():
    return design_scheme(design_layers(3, 0.15), 0.15, alpha=1.0)


def test_criterion_4_noiseless_roundtrip(scheme_m1, scheme_multi):
    t0 = time.time()
    rng = np.random.default_rng(401)
    worst = 0.0
    for s in (scheme_m1, scheme_multi):
        xs = rng.random(1000)
        x_hat, _, undec, _ = decode_batch(s, encode_batch(s, xs))
        assert not undec.any()
        worst = max(worst, float(np.max(np.abs(x_hat - xs))))
    report(
        "criterion 4a (noiseless roundtrip, M=1 and M>=3)",
        worst < 1e-9,
        f"max |decode(encode(x)) - x| = {worst:.2e} [{time.time()-t0:.1f}s]",
    )


def test_criterion_4_ml_oracle_agreement(scheme_m1):
    t0 = time.time()
    s = scheme_m1
    sigma = s.alpha * s.ball_radius / 3.0
    rng = np.random.default_rng(402)
    n = 10_000
    xs = rng.random(n)
    ys = encode_batch(s, xs) + sigma * rng.standard_normal((n, 2 * s.dim))
    sub, _, _, _ = decode_batch(s, ys)
    ml = decode_exhaustive_batch(s, ys, grid=100_000)
    disagree = float(np.mean(np.abs(sub - ml) > 1e-3))
    mse_sub = float(np.mean((sub - xs) ** 2))
    e2 = (ml - xs) ** 2
    mse_ml = float(e2.mean())
    ci = 1.96 * math.sqrt(max(float((e2**2).mean()) - mse_ml**2, 0.0) / n)
    report(
        "criterion 4b (two-stage vs ML oracle at sigma=alpha*delta/3)",
        disagree < 0.01 and mse_ml <= mse_sub + ci,
        f"disagreement {disagree:.4f} (<1%), mse_ml {mse_ml:.3e} <= "
        f"mse_sub {mse_sub:.3e} + ci {ci:.1e} [{time.time()-t0:.1f}s]",
    )


def test_criterion_4_operation_count(scheme_multi):
    t0 = time.time()
    s = scheme_multi
    rng = np.random.default_rng(403)
    xs = rng.random(100)
    ys = encode_batch(s, xs) + 0.01 * rng.standard_normal((100, 2 * s.dim))
    n, m = s.dim, s.n_layers
    worst_ratio = 0.0
    for y in ys:
        counter = OpCounter()
        res = decode(s, y, counter=counter)
        u1 = int(np.sum(np.abs(s.curves[res.layer].u)))
        worst_ratio = max(worst_ratio, counter.mults / (m * n + n * u1))
    report(
        "criterion 4c (decode cost envelope)",
        worst_ratio <= 32.0,
        f"max multiplies per (MN + N||u||_1) unit = {worst_ratio:.1f} <= 32 "
        f"[{time.time()-t0:.1f}s]",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_noiseless_mse(scheme_multi):
    t0 = time.time()
    res = run_mse(scheme_multi, SimConfig(sigma=0.0, trials=100_000, seed=2026))
    report(
        "criterion 5a (noiseless mse)",
        res.mse <= 1e-18,
        f"mse = {res.mse:.2e} at 1e5 trials [{time.time()-t0:.1f}s]",
    )


def test_criterion_5_tangential_model(scheme_multi):
    # The curves are closed; the seam guard arc of design_scheme keeps the two
    # ends of each subinterval apart, so no trial near a closure decodes to the
    # far end with an interval-scale error that would swamp the tangential term.
    t0 = time.time()
    s = scheme_multi
    sigma = s.alpha * s.ball_radius / 10.0
    res = run_mse(s, SimConfig(sigma=sigma, trials=100_000, seed=2026))
    pred = sigma**2 / (s.alpha * s.total_length) ** 2
    ok = 0.5 * pred <= res.mse <= 2.0 * pred
    report(
        "criterion 5b (tangential mse model at sigma=alpha*delta/10)",
        ok,
        f"mse = {res.mse:.3e} vs model {pred:.3e} (ratio {res.mse/pred:.0f}) "
        f"[{time.time()-t0:.1f}s]",
    )


def test_criterion_5_threshold_effect(scheme_multi):
    t0 = time.time()
    s = scheme_multi
    delta = s.ball_radius
    rates = [
        run_mse(s, SimConfig(sigma=f * s.alpha * delta, trials=100_000, seed=2026)).anomaly_rate
        for f in (0.25, 0.5, 1.0)
    ]
    ok = rates[0] < 1e-2 < rates[-1] and any(r > 1e-2 for r in rates)
    report(
        "criterion 5c (anomaly threshold crossing)",
        ok,
        f"anomaly rates {[f'{r:.4f}' for r in rates]} at sigma/(alpha*delta) = "
        f"(0.25, 0.5, 1.0) cross 1e-2 [{time.time()-t0:.1f}s]",
    )


def test_criterion_5_reproducibility(scheme_multi):
    t0 = time.time()
    cfg = SimConfig(sigma=0.02, trials=100_000, seed=77)
    a = run_mse(scheme_multi, cfg, workers=1)
    b = run_mse(scheme_multi, cfg, workers=1)
    c = run_mse(scheme_multi, cfg, workers=4)
    ok = a == b == c
    report(
        "criterion 5d (bit-exact reproducibility incl. 4 workers)",
        ok,
        f"mse {a.mse!r} identical across reruns and worker counts "
        f"[{time.time()-t0:.1f}s]",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_tradeoff():
    t0 = time.time()
    deltas = [0.02, 0.04, 0.06, 0.08, 0.11, 0.14, 0.17, 0.2]
    rows = tradeoff_table(3, deltas)
    ok_rows = all(
        row.length_single is not None
        and row.length_multi is not None
        and row.length_multi >= row.length_single
        for row in rows
    )
    singles = [row.length_single for row in rows]
    multis = [row.length_multi for row in rows]
    ok_mono = all(a >= b for a, b in zip(singles, singles[1:])) and all(
        a >= b for a, b in zip(multis, multis[1:])
    )
    csv = format_tradeoff_csv(rows)
    reference = (DATA / "tradeoff_n3_reference.csv").read_text()
    report(
        "criterion 6 (length vs radius tradeoff)",
        ok_rows and ok_mono and csv == reference,
        f"multi >= single on all 8 rows, both non-increasing, CSV matches "
        f"regression lock [{time.time()-t0:.1f}s]",
    )
