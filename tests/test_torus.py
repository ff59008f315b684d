import math
import re

import numpy as np
import pytest

from toruscodes import (
    TorusSpec,
    distance_bounds,
    embed,
    inter_torus_distance,
    intra_torus_distance,
    reduce_to_box,
)
from conftest import random_torus

SQ2 = math.sqrt(2.0)


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(np.array([0.6, 0.8, 0.0]))  # zero entry
    with pytest.raises(ValueError):
        TorusSpec(np.array([0.5, 0.5]))  # not unit norm
    with pytest.raises(ValueError):
        TorusSpec(np.array([-0.6, 0.8]))
    t = TorusSpec(np.array([0.6, 0.8]))
    assert t.c_min == 0.6
    assert np.allclose(t.box_periods, 2 * math.pi * np.array([0.6, 0.8]))
    assert not t.c.flags.writeable


@pytest.mark.parametrize(
    "c, message",
    [
        ([0.6, 0.8, 0.0], "all entries of c must be strictly positive"),
        ([-0.6, 0.8], "all entries of c must be strictly positive"),
        ([0.6, math.nan], "all entries of c must be strictly positive"),
        ([math.nan, 0.8], "all entries of c must be strictly positive"),
        ([0.5, 0.5], "c must be a unit vector, got norm 0.7071067811865476"),
        ([0.6, 0.8 + 1e-11], "c must be a unit vector, got norm 1.000000000008"),
    ],
)
def test_torus_spec_refuses_with_its_messages(c, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TorusSpec(np.array(c))


def test_embed_zero_angles():
    t = TorusSpec(np.array([0.6, 0.8]))
    assert np.allclose(embed(t, np.zeros(2)), [0.6, 0.0, 0.8, 0.0], atol=1e-15)


def test_embed_periodicity():
    t = TorusSpec(np.array([0.6, 0.8]))
    u = np.array([0.3, 1.1])
    assert np.linalg.norm(embed(t, u + t.box_periods) - embed(t, u)) < 1e-12


def test_embed_half_turn():
    t = TorusSpec(np.array([1.0, 1.0]) / SQ2)
    u = np.array([math.pi / SQ2, 0.0])
    expected = np.array([-1 / SQ2, 0.0, 1 / SQ2, 0.0])
    assert np.allclose(embed(t, u), expected, atol=1e-12)


def test_embed_on_unit_sphere(rng):
    for n in (2, 3, 4):
        t = random_torus(rng, n)
        u = rng.uniform(-10, 10, size=(1000, n))
        norms = np.linalg.norm(embed(t, u), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_reduce_to_box():
    t = TorusSpec(np.array([0.6, 0.8]))
    u = np.array([0.5, 1.0])
    assert np.allclose(reduce_to_box(t, u), u)
    eps = 1e-3
    wrapped = reduce_to_box(t, np.array([-eps, 0.0]))
    assert np.allclose(wrapped, [2 * math.pi * 0.6 - eps, 0.0])
    five = reduce_to_box(t, np.array([5 * math.pi * 0.6, 0.0]))
    assert np.allclose(five, [math.pi * 0.6, 0.0])


def test_reduce_preserves_embedding(rng):
    t = random_torus(rng, 3)
    u = rng.uniform(-30, 30, size=(200, 3))
    d = np.linalg.norm(embed(t, reduce_to_box(t, u)) - embed(t, u), axis=1)
    assert d.max() < 1e-12


def test_inter_torus_distance():
    a = TorusSpec(np.array([0.8, 0.6]))
    b = TorusSpec(np.array([0.6, 0.8]))
    assert inter_torus_distance(a, a) == 0.0
    assert abs(inter_torus_distance(a, b) - 0.2828427124746190) < 1e-12
    with pytest.raises(ValueError):
        inter_torus_distance(a, TorusSpec(np.ones(3) / math.sqrt(3)))


def test_inter_torus_distance_sampling_oracle(rng):
    # the gap between sampled point pairs approaches ||c_a - c_b|| from above
    a = TorusSpec(np.array([0.8, 0.6]))
    b = TorusSpec(np.array([0.6, 0.8]))
    val = inter_torus_distance(a, b)
    pa = embed(a, rng.uniform(0, 1, size=(10_000, 2)) * a.box_periods)
    pb = embed(b, rng.uniform(0, 1, size=(10_000, 2)) * b.box_periods)
    # all points are unit vectors, so min distance = sqrt(2 - 2 max dot)
    best_dot = -np.inf
    for start in range(0, pa.shape[0], 1000):
        best_dot = max(best_dot, float((pa[start : start + 1000] @ pb.T).max()))
    sampled = math.sqrt(max(2.0 - 2.0 * best_dot, 0.0))
    assert sampled >= val - 1e-3
    assert sampled <= val + 0.05  # sampling resolution slack


def test_intra_distance_matches_chord(rng):
    for n in (2, 3, 4):
        t = random_torus(rng, n)
        u = rng.uniform(0, 1, size=(2000, n)) * t.box_periods
        v = rng.uniform(0, 1, size=(2000, n)) * t.box_periods
        formula = intra_torus_distance(t, u, v)
        chord = np.linalg.norm(embed(t, u) - embed(t, v), axis=1)
        assert np.max(np.abs(formula - chord)) < 1e-12


def test_intra_distance_special_cases():
    t = TorusSpec(np.array([0.6, 0.8]))
    u = np.array([0.2, 0.3])
    assert intra_torus_distance(t, u, u) == 0.0
    v = u + np.array([math.pi * 0.6, 0.0])
    assert abs(intra_torus_distance(t, u, v) - 2 * 0.6) < 1e-12


def test_distance_bounds_endpoints():
    t = TorusSpec(np.array([1.0]))  # c_min = 1
    assert distance_bounds(t, 0.0) == (0.0, 0.0)
    lower, upper = distance_bounds(t, math.pi)
    assert abs(lower - 2.0) < 1e-12 and abs(upper - 2.0) < 1e-12
    with pytest.raises(ValueError):
        distance_bounds(t, -0.1)


def test_distance_bounds_sandwich(rng):
    # within the window D <= pi*c_min the chord is sandwiched and the
    # lower bound itself dominates (2/pi)*D
    for n in (2, 3, 4):
        t = random_torus(rng, n)
        u = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        v = rng.uniform(0, 1, size=(100_000, n)) * t.box_periods
        flat = np.linalg.norm(u - v, axis=1)
        keep = flat <= math.pi * t.c_min
        assert keep.sum() > 100
        chord = intra_torus_distance(t, u[keep], v[keep])
        for d, ch in zip(flat[keep][:2000], chord[:2000]):
            lower, upper = distance_bounds(t, d)
            assert lower - 1e-12 <= ch <= upper + 1e-12
            assert lower >= (2.0 / math.pi) * d - 1e-12
            assert upper <= d + 1e-12


def test_local_isometry(rng):
    t = random_torus(rng, 3)
    u = rng.uniform(0, 1, size=(500, 3)) * t.box_periods
    h = rng.standard_normal((500, 3))
    h *= 1e-4 / np.linalg.norm(h, axis=1, keepdims=True)
    ratio = np.linalg.norm(embed(t, u + h) - embed(t, u), axis=1) / 1e-4
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(ratio >= 1.0 - 1e-6)


def test_inter_distance_is_metric(rng):
    tori = [random_torus(rng, 3) for _ in range(12)]
    for a in tori:
        for b in tori:
            dab = inter_torus_distance(a, b)
            assert abs(dab - inter_torus_distance(b, a)) < 1e-15
            for c in tori:
                assert dab <= inter_torus_distance(a, c) + inter_torus_distance(c, b) + 1e-12
