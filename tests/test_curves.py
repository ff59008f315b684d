import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscodes import (
    ConstructionViolatedError,
    CurveSpec,
    LatticeBasis,
    OutOfRangeError,
    PrimitivityError,
    TargetLattice,
    TorusSpec,
    curve_point,
    distance_bounds,
    dual_basis,
    exact_small_ball_2d,
    fcc_target,
    hexagonal_target,
    integer_target,
    lifting_dual_basis,
    lifting_winding,
    line_spacing,
    make_curve,
    projection_lattice_basis,
    search_best_w,
    shortest_vector,
    small_ball_bounds,
)
from toruscodes import curves, design_layers, design_scheme, lattices, simulate
from toruscodes.curves import _lifting_windings, default_target
from conftest import _call_counts, brute_projection_shortest, random_primitive, random_torus

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def central_torus(n):
    return TorusSpec(np.full(n, 1.0 / math.sqrt(n)))


def test_curve_point_examples():
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    cs = make_curve(t, [1, 1])
    start = curve_point(cs, 0.0)
    assert np.allclose(start, [1 / SQ2, 0, 1 / SQ2, 0], atol=1e-15)
    assert np.linalg.norm(curve_point(cs, 1.0) - start) < 1e-9
    mid = curve_point(cs, 0.5)
    assert np.allclose(mid, [-1 / SQ2, 0, -1 / SQ2, 0], atol=1e-12)
    with pytest.raises(OutOfRangeError):
        curve_point(cs, 1.2)
    with pytest.raises(OutOfRangeError):
        curve_point(cs, -0.1)


def test_knot_closure(rng):
    for n in (2, 3):
        for _ in range(50):
            t = random_torus(rng, n)
            u = random_primitive(rng, n)
            try:
                cs = make_curve(t, u)
            except OutOfRangeError:
                continue  # spacing outside the ball-bound window
            gap = np.linalg.norm(curve_point(cs, 1.0) - curve_point(cs, 0.0))
            assert gap < 1e-9


def test_constant_stretch(rng):
    t = central_torus(3)
    cs = make_curve(t, [1, 2, 3])
    xs = rng.uniform(0.01, 0.99, size=100)
    h = 1e-7
    speed = np.linalg.norm(
        curve_point(cs, xs + h) - curve_point(cs, xs - h), axis=1
    ) / (2 * h)
    assert np.max(np.abs(speed - cs.length)) < 1e-6 * cs.length


def test_line_spacing_closed_form_2d(rng):
    # r * ||u_hat|| = c1 * c2 for any primitive winding on a 2-d torus
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    assert abs(line_spacing(t, [4, 5]) - 0.5 / math.sqrt(20.5)) < 1e-12
    for _ in range(20):
        t = random_torus(rng, 2)
        u = random_primitive(rng, 2)
        c1, c2 = t.c
        expect = c1 * c2 / math.sqrt(u[0] ** 2 * c1 ** 2 + u[1] ** 2 * c2 ** 2)
        assert abs(line_spacing(t, u) - expect) < 1e-12


def test_line_spacing_3d():
    t = central_torus(3)
    assert abs(line_spacing(t, [1, 1, 1]) - math.sqrt(2 / 3) / SQ3) < 1e-12
    oracle = brute_projection_shortest(t.c, np.array([1, 1, 1]))
    assert abs(line_spacing(t, [1, 1, 1]) - oracle) < 1e-9


def test_line_spacing_equals_the_projection_basis_route():
    # line_spacing reduces the line lattice itself; its bits must be those
    # of shortest_vector on projection_lattice_basis, ties included
    rng = np.random.default_rng(20)
    cases = [(np.full(3, 1.0 / SQ3), [1, 1, 1]), (np.array([1.0, 1.0]) / SQ2, [4, 5])]
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = np.abs(rng.standard_normal(n)) + 0.05
        u = [0] * n
        while math.gcd(*u) != 1:
            u = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, n)]
        cases.append((c / np.linalg.norm(c), u))
    for c, u in cases:
        reference = shortest_vector(projection_lattice_basis(c, u)).norm
        assert line_spacing(TorusSpec(c), u) == reference


def test_small_ball_bounds():
    t = TorusSpec(np.array([0.6, 0.8]))
    assert small_ball_bounds(t, 0.0) == (0.0, 0.0)
    lower, upper = small_ball_bounds(t, 1e-6)
    assert abs(lower - math.pi * 1e-6) < 1e-12
    assert abs(upper - math.pi * 1e-6) < 1e-12
    lower, upper = small_ball_bounds(t, 0.3)
    assert 0.0 < lower <= upper <= 2.0
    with pytest.raises(OutOfRangeError):
        small_ball_bounds(t, 0.7)  # beyond c_min
    with pytest.raises(OutOfRangeError):
        small_ball_bounds(t, -0.1)


def test_exact_small_ball_2d_within_bounds():
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    cs = make_curve(t, [4, 5])
    exact = exact_small_ball_2d(t, [4, 5])
    assert cs.ball_lower - 1e-12 <= exact <= cs.ball_upper + 1e-12
    with pytest.raises(PrimitivityError):
        exact_small_ball_2d(t, [8, 10])
    with pytest.raises(ValueError):
        exact_small_ball_2d(central_torus(3), [1, 1, 1])


def test_curvespec_normalization_and_json():
    t = central_torus(3)
    cs = make_curve(t, [-1, 2, 2])
    assert tuple(cs.u) == (1, -2, -2)  # sign fixed so first nonzero is positive
    again = CurveSpec.from_dict(json.loads(json.dumps(cs.to_dict())))
    assert np.array_equal(again.u, cs.u)
    assert abs(again.length - cs.length) < 1e-12
    with pytest.raises(PrimitivityError):
        make_curve(t, [2, 4, 6])
    with pytest.raises(PrimitivityError):
        make_curve(t, [0, 0, 0])


def test_curvespec_is_torus_and_winding():
    assert [f.name for f in dataclasses.fields(CurveSpec)] == ["torus", "u"]


def test_curvespec_derives_beyond_ball_window():
    # spacing 0.8 > c_min = 0.6: the curve and its spacing exist, its ball
    # bounds do not
    t = TorusSpec(np.array([0.6, 0.8]))
    cs = CurveSpec(t, [1, 0])
    assert cs.length == 2.0 * math.pi * 0.6
    assert abs(cs.spacing - 0.8) < 1e-12
    with pytest.raises(OutOfRangeError):
        cs.ball_lower
    with pytest.raises(OutOfRangeError):
        make_curve(t, [1, 0])


def test_curvespec_from_dict_reads_only_c_and_u():
    d = make_curve(central_torus(3), [1, 2, 3]).to_dict()
    bare = {"c": d["c"], "u": d["u"]}
    wrong = dict(d, length=1.0, spacing=0.5, ball_lower=2.0, ball_upper=-1.0)
    for item in (bare, wrong):
        assert CurveSpec.from_dict(item).to_dict() == d
    for u in ([1.5, 2, 3], [10**30, 1, 1], [1, 2], [1, 2, "3"]):
        with pytest.raises(PrimitivityError):
            CurveSpec.from_dict(dict(d, u=u))


@pytest.mark.parametrize("m", sorted(curves._TARGETS))
def test_target_table_hermite_constants(m):
    # the table's gamma_m is the Hermite invariant of its target's lattice
    target, gamma = curves._TARGETS[m]
    assert target.dim == m and default_target(m + 1) is target
    lattice = dual_basis(LatticeBasis(target.dual_generator))
    lam = shortest_vector(lattice).norm
    assert abs(lam**2 / lattice.det() ** (2.0 / m) - gamma) <= 1e-12


def test_target_validation():
    with pytest.raises(ValueError):
        TargetLattice([[1.0, 0.5], [0.0, 1.0]])  # not lower triangular
    with pytest.raises(ValueError):
        TargetLattice([[0.0, 0.0], [1.0, 1.0]])  # zero diagonal
    assert integer_target().dim == 1
    assert hexagonal_target().dim == 2
    assert fcc_target().dim == 3


def test_lifting_dual_basis_entries():
    rows = lifting_dual_basis(hexagonal_target(), np.ones(3), 1).rows
    assert np.allclose(rows, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        lifting_dual_basis(hexagonal_target(), np.array([2.0, 1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        lifting_dual_basis(hexagonal_target(), np.ones(3), 0)


@pytest.mark.parametrize("w", [True, 2.0, 2.5, "2"])
def test_lifting_rejects_non_integer_window(w):
    for build in (lifting_winding, lifting_dual_basis):
        with pytest.raises(ValueError, match="w must be a positive integer"):
            build(hexagonal_target(), np.ones(3), w)
    u = lifting_winding(hexagonal_target(), np.ones(3), np.int64(2))
    assert u.tolist() == lifting_winding(hexagonal_target(), np.ones(3), 2).tolist()


def test_lifting_gram_convergence():
    target = hexagonal_target()
    expect = target.gram()
    devs = []
    for w in (10, 20, 100):
        g = lifting_dual_basis(target, np.ones(3), w).gram() / w ** 2
        devs.append(float(np.max(np.abs(g - expect))))
    assert devs[1] < devs[0]
    assert devs[2] < 0.05


def test_lifting_winding_closed_form():
    # minimum-2 hexagonal target reproduces the closed-form winding family
    target = hexagonal_target(scale=2.0)
    for c2 in (1.0, 0.8, 1.3):
        c = np.array([1.0, c2, 1.1])
        for w in range(1, 21):
            u = lifting_winding(target, c, w)
            u2 = -2 * w
            u3 = 2 * w * math.floor(w * SQ3 * c2) - w
            assert tuple(u) == (1, u2, u3)
    assert tuple(lifting_winding(target, np.ones(3), 1)) == (1, -2, 1)


def test_lifting_winding_primitive_sweep():
    target = hexagonal_target()
    for w in range(1, 51):
        u = lifting_winding(target, np.array([1.0, 0.93, 1.07]), w)
        g = 0
        for x in u:
            g = math.gcd(g, int(abs(x)))
        assert g == 1


def test_lifting_matches_projection_dual():
    # the floored matrix generates exactly the dual of the projection lattice
    target = hexagonal_target()
    for c in (np.ones(3), np.array([1.0, 0.85, 1.2])):
        for w in (1, 3, 7, 12):
            u = lifting_winding(target, c, w)
            lifted = lifting_dual_basis(target, c, w)
            via_lattice = dual_basis(projection_lattice_basis(c, u))
            assert abs(lifted.det() - via_lattice.det()) < 1e-9 * lifted.det()
            # mutual integer coordinates: same lattice, different bases
            for x, y in ((lifted, via_lattice), (via_lattice, lifted)):
                coeffs, *_ = np.linalg.lstsq(y.rows.T, x.rows.T, rcond=None)
                assert np.max(np.abs(coeffs - np.round(coeffs))) < 1e-6


def test_lifting_matches_projection_dual_fcc():
    # same duality check for the 3-d target on a 4-d ambient lattice
    target = fcc_target()
    c = np.array([1.0, 0.9, 1.15, 1.05])
    for w in (1, 4, 9):
        u = lifting_winding(target, c, w)
        lifted = lifting_dual_basis(target, c, w)
        via_lattice = dual_basis(projection_lattice_basis(c, u))
        assert abs(lifted.det() - via_lattice.det()) < 1e-9 * lifted.det()
        for x, y in ((lifted, via_lattice), (via_lattice, lifted)):
            coeffs, *_ = np.linalg.lstsq(y.rows.T, x.rows.T, rcond=None)
            assert np.max(np.abs(coeffs - np.round(coeffs))) < 1e-6


def test_lifting_density_approach():
    # projections converge to the hexagonal packing density
    from toruscodes import packing_density

    target = hexagonal_target()
    u = lifting_winding(target, np.ones(3), 50)
    dens = packing_density(projection_lattice_basis(np.ones(3), u))
    assert abs(dens - math.pi / math.sqrt(12.0)) < 0.05


def test_gram_deviation_decays_like_one_over_w():
    # d_w is O(1/w): the fitted constant K = max w*d_w stays small over a
    # long doubling sweep, and d halves (up to floor jitter) along it
    target = hexagonal_target()
    expect = target.gram()
    ws = [5, 10, 20, 40, 80, 160, 320]
    devs = [
        float(np.max(np.abs(lifting_dual_basis(target, np.ones(3), w).gram() / w**2 - expect)))
        for w in ws
    ]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    k = max(w * d for w, d in zip(ws, devs))
    assert k <= 2.0


def test_spacing_decreases_with_w():
    t = central_torus(3)
    target = hexagonal_target()
    c_scaled = t.c / t.c[0]
    spacings = [
        line_spacing(t, lifting_winding(target, c_scaled, w)) for w in range(1, 41)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(spacings, spacings[1:]))


def test_search_best_w():
    t = central_torus(3)
    target = hexagonal_target()
    c_scaled = t.c / t.c[0]
    r1 = line_spacing(t, lifting_winding(target, c_scaled, 1))
    assert search_best_w(t, r1 * 1.5, w_max=100) is None
    w, cs = search_best_w(t, 1e-9, w_max=64)
    assert w == 64
    assert cs.spacing >= 1e-9
    for r_min in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="r_min must be positive"):
            search_best_w(t, r_min)


def test_search_best_w_needs_a_target_row():
    # the search aims at the _TARGETS row of rank N - 1; N = 5 has none
    assert 4 not in curves._TARGETS
    with pytest.raises(ValueError, match="no built-in target lattice for torus dimension 5"):
        search_best_w(central_torus(5), 0.01, w_max=10)


@pytest.mark.parametrize("w_max", [100.7, 100.0, True, float("inf"), "100"])
def test_search_rejects_non_integer_w_max(w_max):
    with pytest.raises(ValueError, match="w_max must be an integer >= 1"):
        search_best_w(central_torus(3), 0.05, w_max=w_max)


def test_search_accepts_numpy_integer_w_max():
    w, cs = search_best_w(central_torus(3), 0.05, w_max=np.int64(100))
    want_w, want = search_best_w(central_torus(3), 0.05, w_max=100)
    assert (w, cs.u.tolist()) == (want_w, want.u.tolist())


def test_search_anti_monotone_length():
    t = central_torus(3)
    r_grid = [0.003, 0.006, 0.012, 0.024, 0.048]
    lengths = []
    for r_min in r_grid:
        found = search_best_w(t, r_min, w_max=500)
        assert found is not None
        lengths.append(found[1].length)
    assert all(a >= b - 1e-9 for a, b in zip(lengths, lengths[1:]))


def test_search_result_meets_target():
    for delta_c in (np.ones(3), np.array([1.0, 1.21, 0.84])):
        c = delta_c / np.linalg.norm(delta_c)
        t = TorusSpec(c)
        found = search_best_w(t, 0.02, w_max=200)
        assert found is not None
        w, cs = found
        assert cs.spacing >= 0.02
        # the next larger window must violate the spacing target
        c_scaled = t.c / t.c[0]
        for wb in range(w + 1, min(w + 4, 201)):
            assert line_spacing(t, lifting_winding(hexagonal_target(), c_scaled, wb)) < 0.02


def _python_winding(target, c_scaled, w):
    """Scalar lifting recursion on Python integers, floors as (w*l)*c."""
    lstar = target.dual_generator
    u = [1]
    for i in range(target.dim):
        acc = math.floor(w * float(lstar[i, 0]) * float(c_scaled[0]))
        for j in range(1, i + 1):
            acc += math.floor(w * float(lstar[i, j]) * float(c_scaled[j])) * u[j]
        u.append(-acc)
    return u


_GAMMA = {1: 1.0, 2: 2.0 / math.sqrt(3.0), 3: 2.0 ** (1.0 / 3.0)}


def _scalar_search(target, torus, r_min, w_max):
    """One window at a time: Hermite prune, exact spacing, first hit wins."""
    c = torus.c.tolist()
    c_scaled = (torus.c / torus.c[0]).tolist()
    m = torus.dim - 1
    prod_c = float(np.prod(torus.c))
    for w in range(w_max, 0, -1):
        u = _python_winding(target, c_scaled, w)
        norm = math.sqrt(sum((ci * ui) ** 2 for ci, ui in zip(c, u)))
        if _GAMMA[m] ** (m / 2.0) * (prod_c / norm) < r_min**m:
            continue
        if max(abs(x) for x in u) >= 2**62:
            raise ConstructionViolatedError("winding entries overflow the integer range")
        if line_spacing(torus, np.array(u, dtype=np.int64)) >= r_min:
            try:
                return w, make_curve(torus, u)
            except OutOfRangeError:
                continue
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    c=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
    log_r_min=st.floats(-3.0, -0.3),
    w_max=st.integers(1, 400),
)
def test_search_matches_scalar_scan(n, c, log_r_min, w_max):
    r_min = 10.0**log_r_min
    c = np.array(c[:n])
    torus = TorusSpec(c / np.linalg.norm(c))
    target = default_target(n)
    want = _scalar_search(target, torus, r_min, w_max)
    # blocks of 7 or 2 windows split the scanned range into many ranges,
    # each of which may be skipped
    for block in (curves._SCAN_BLOCK, 7, 2):
        with mock.patch.object(curves, "_SCAN_BLOCK", block):
            got = search_best_w(torus, r_min, w_max=w_max)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert got[1].to_dict() == want[1].to_dict()
    c_scaled = torus.c / torus.c[0]
    us = _lifting_windings(target, c_scaled, np.arange(w_max, 0, -1))
    assert us.dtype == np.int64
    for w, row in zip(range(w_max, 0, -1), us):
        assert row.tolist() == _python_winding(target, c_scaled, w)


def _scan_norm2(torus, ws):
    """||u_hat||^2 of windows ws as the scan of search_best_w computes it."""
    c = torus.c
    us = _lifting_windings(default_target(torus.dim), c / c[0], ws).astype(float)
    norm2 = np.float_power(c[0] * us[:, 0], 2.0)
    for i in range(1, torus.dim):
        norm2 = norm2 + np.float_power(c[i] * us[:, i], 2.0)
    return norm2


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    c=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
    log_r_min=st.floats(-3.0, -0.3),
    hi=st.integers(1, 20_000),
    frac=st.floats(0.0, 0.6),
)
def test_range_bound_is_sound(n, c, log_r_min, hi, frac):
    r_min = 10.0**log_r_min
    c = np.array(c[:n])
    torus = TorusSpec(c / np.linalg.norm(c))
    m = n - 1
    lo = hi - int(frac * hi)
    floor = curves._range_norm2_floor(
        default_target(n),
        (torus.c / torus.c[0])[None],
        torus.c[None],
        np.array([lo]),
        np.array([hi]),
    )[0]
    norm2 = _scan_norm2(torus, np.arange(hi, lo - 1, -1))
    assert np.all(norm2 >= floor)

    def pruned(x):
        return _GAMMA[m] ** (m / 2.0) * (float(np.prod(torus.c)) / np.sqrt(x)) < r_min**m

    # a range the bound rules out holds only windows the exact prune drops
    if pruned(floor):
        assert np.all(pruned(norm2))


def test_search_skips_pruned_ranges():
    # the search computes the windings of few of the windows it rules out
    logical, rows = [], []
    search, windings = simulate._search_layers, curves._lifting_windings

    def counted_search(tori, r_mins, w_max):
        found = search(tori, r_mins, w_max)
        logical.extend(w_max if f is None else w_max - f[0] + 1 for f in found)
        return found

    def counted_windings(target, c, ws):
        rows.append(len(ws))
        return windings(target, c, ws)

    with mock.patch.object(simulate, "_search_layers", counted_search), mock.patch.object(
        curves, "_lifting_windings", counted_windings
    ):
        design_scheme(design_layers(4, 0.12, min_coordinate=0.06), 0.12)
    assert len(logical) == 85
    assert 0 < sum(rows) < 0.05 * sum(logical)


def _outcome(found):
    return None if found is None else (found[0], found[1].to_dict())


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    cs=st.lists(st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4), min_size=1, max_size=6),
    log_r_mins=st.lists(st.floats(-3.0, -0.3), min_size=6, max_size=6),
    w_max=st.integers(1, 400),
)
def test_batch_search_matches_per_torus_search(n, cs, log_r_mins, w_max):
    # one batched search over many tori (some with no feasible window) gives
    # each torus its own result, also when small blocks, waves and bound
    # chunks split the search into many passes
    tori = [TorusSpec(np.array(c[:n]) / np.linalg.norm(c[:n])) for c in cs]
    r_mins = [10.0**x for x in log_r_mins[: len(tori)]]
    want = [_outcome(search_best_w(t, r, w_max=w_max)) for t, r in zip(tori, r_mins)]
    for block, wave, chunk in ((256, 4096, 2048), (7, 14, 3), (2, 2, 1)):
        with mock.patch.multiple(curves, _SCAN_BLOCK=block, _WAVE=wave, _BOUND_CHUNK=chunk):
            got = curves._search_layers(tori, r_mins, w_max)
        assert [_outcome(f) for f in got] == want


def test_batch_search_on_exact_integers():
    # the N=4 torus of the overflow test below needs Python-int windings at
    # the top of its range; it shares the search with a torus that hits
    # there too, one that hits far lower and one with no feasible window
    tori = [
        TorusSpec(np.array(c) / np.linalg.norm(c))
        for c in ([1.0, 1.3, 0.9, 1.1], [2.0, 1.0, 1.0, 1.0], [1.0] * 4, [0.6, 0.5, 0.4, 0.48])
    ]
    r_mins = [1e-12, 1e-12, 0.02, 0.9]
    w_max = 1_990_222
    want = [_outcome(search_best_w(t, r, w_max=w_max)) for t, r in zip(tori, r_mins)]
    assert [w for w, _ in want[:3]] == [w_max, w_max, 34] and want[3] is None
    dtypes = []

    def recorded(target, c, ws):
        us = _lifting_windings(target, c, ws)
        dtypes.append(us.dtype)
        return us

    for block in (256, 7, 2):
        dtypes.clear()
        got = []
        with mock.patch.object(curves, "_SCAN_BLOCK", block), mock.patch.object(
            curves, "_lifting_windings", recorded
        ):
            lll = _call_counts(
                lambda: got.extend(curves._search_layers(tori, r_mins, w_max)), lattices._lll
            )
        assert [_outcome(f) for f in got] == want
        assert dtypes[0] == object
        # the object wave gets the line-vector screen too: one exact spacing
        # (one reduction) per hit, none for the torus with r_min 0.02 above
        # its hit
        assert lll == [3]


def test_search_memory_does_not_grow_with_w_max():
    # bound chunks and waves have fixed sizes, so the peak stays bounded
    # whatever w_max and the number of layers
    book = design_layers(4, 0.12, min_coordinate=0.06)
    for w_max in (10_000, 200_000):
        tracemalloc.start()
        try:
            design_scheme(book, 0.12, w_max=w_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def test_layer_greedy_memory_does_not_grow_with_the_grid():
    # the greedy reads its grid one slab of first angles at a time: 160 000
    # candidates here, 21.8 MB of traced memory when the whole grid was built
    tracemalloc.start()
    try:
        design_layers(5, 0.15, min_coordinate=0.075)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_lifting_windings_exact_across_2_53_and_2_62():
    # N=4 windings grow like w^3: for this c, max |u| first reaches 2^53
    # at w = 248779 and 2^62 at w = 1990223
    target = fcc_target()
    c = np.array([1.0, 1.3, 0.9, 1.1])
    for w, limit in ((248_779, 2**53), (1_990_223, 2**62)):
        assert max(map(abs, _python_winding(target, c, w - 1))) < limit
        assert max(map(abs, _python_winding(target, c, w))) >= limit
        ws = np.arange(w + 40, w - 40, -1)
        us = _lifting_windings(target, c, ws)
        for wk, row in zip(ws.tolist(), us):
            assert [int(x) for x in row] == _python_winding(target, c, wk)
    for w in range(1_990_223 - 3, 1_990_223):
        assert lifting_winding(target, c, w).tolist() == _python_winding(target, c, w)
    # past 2^63 an int64 recursion would wrap; these rows stay exact
    ws = np.array([10**7, 3_000_000, 2_600_000, 1_990_223, 1_000_000, 1])
    us = _lifting_windings(target, c, ws)
    assert max(map(abs, _python_winding(target, c, 3_000_000))) >= 2**63
    for wk, row in zip(ws.tolist(), us):
        assert [int(x) for x in row] == _python_winding(target, c, wk)
    for w in (1_990_223, 1_990_224, 1_990_225, 3_000_000):
        with pytest.raises(ConstructionViolatedError):
            lifting_winding(target, c, w)
    # the scan reports the overflow of an unpruned window instead of wrapping
    torus = TorusSpec(c / np.linalg.norm(c))
    with pytest.raises(ConstructionViolatedError):
        search_best_w(torus, 1e-12, w_max=1_990_224)
    w, cs = search_best_w(torus, 1e-12, w_max=1_990_222)
    assert w == 1_990_222
    assert cs.u.tolist() == _python_winding(target, torus.c / torus.c[0], w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_vectors_are_a_basis_of_the_line_lattice(rng, n):
    # exact integers: K n_j = e_j, (u, n_1, ..., n_m) is a basis of Z^N,
    # and _line_lattice's rows are a unimodular integer change of the n_j
    target = default_target(n)
    m = n - 1
    for _ in range(8):
        torus = random_torus(rng, n)
        c_scaled = torus.c / torus.c[0]
        w = int(rng.integers(1, 3000))
        a = curves._window_floors(target, c_scaled, [w])[0].tolist()
        k = [[int(x) for x in a[i][: i + 1]] + [1] + [0] * (m - 1 - i) for i in range(m)]
        u = _lifting_windings(target, c_scaled, [w])[0].tolist()
        ns = [curves._line_vector(a, [int(i == j) for i in range(m)]) for j in range(m)]
        for j, nj in enumerate(ns):
            assert [sum(map(int.__mul__, ki, nj)) for ki in k] == [int(i == j) for i in range(m)]
        assert abs(lattices._int_det([u] + ns)) == 1
        kernel, _ = lattices._line_lattice(torus.c, u)
        coeffs = []
        for row in kernel:
            beta = [sum(map(int.__mul__, ki, row)) for ki in k]
            rest = [x - sum(b * nj[i] for b, nj in zip(beta, ns)) for i, x in enumerate(row)]
            assert rest == [row[0] * x for x in u]  # a multiple of u: P(c*u) = 0
            coeffs.append(beta)
        assert abs(lattices._int_det(coeffs)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    c=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
    log_r_min=st.floats(-3.0, -0.3),
    w_max=st.integers(1, 400),
)
def test_certified_windows_are_rejected(n, c, log_r_min, w_max):
    # every window the line-vector certificate rejects has spacing < r_min,
    # so the exact path would have rejected it too
    r_min = 10.0**log_r_min
    c = np.array(c[:n])
    torus = TorusSpec(c / np.linalg.norm(c))
    certified = []
    shorter_than = curves._shorter_than

    def recorded(a, u, n_vec, bound):
        if shorter_than(a, u, n_vec, bound):
            certified.append(u)
            return True
        return False

    with mock.patch.object(curves, "_shorter_than", recorded):
        search_best_w(torus, r_min, w_max=w_max)
    for u in certified:
        assert line_spacing(torus, np.array(u)) < r_min


def test_spacing_computed_once_per_designed_curve():
    # at delta 0.12 the certificate rejects every window the exact path
    # would: one exact spacing, so one reduction, per curve, 23 at N=3 and
    # 84 at N=4
    schemes = []
    lll = _call_counts(
        lambda: schemes.extend(
            design_scheme(design_layers(n, 0.12, min_coordinate=0.06), 0.12) for n in (3, 4)
        ),
        lattices._lll,
    )
    assert [s.n_layers for s in schemes] == [23, 84]
    assert lll == [107]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: small_ball_bounds(TorusSpec(np.ones(3) / SQ3), math.nan), OutOfRangeError),
        (lambda: distance_bounds(TorusSpec(np.ones(3) / SQ3), math.nan), ValueError),
        (lambda: design_layers(3, 0.12, min_coordinate=math.nan), ValueError),
    ],
    ids=["small_ball_bounds", "distance_bounds", "design_layers-min_coordinate"],
)
def test_nan_rejected_where_it_enters(call, error):
    # every comparison with NaN is false, so a check written as "x < 0"
    # lets NaN through to (nan, nan) bounds or a skipped filter
    with pytest.raises(error):
        call()
