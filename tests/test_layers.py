import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from toruscodes import (
    GridResolutionError,
    InfeasibleSeparationError,
    LayerCodebook,
    TorusSpec,
    design_layers,
    inter_torus_distance,
    min_separation,
    separation_rows,
)
from toruscodes import layers


def test_two_dim_codebook():
    cb = design_layers(2, 0.3)
    assert cb.size >= 2
    assert cb.achieved_sep >= 0.6


def test_three_dim_codebook_size():
    cb = design_layers(3, 0.05)
    assert cb.size >= 20
    # regression lock for the deterministic greedy at the default grid step
    assert cb.size == 145
    assert cb.achieved_sep >= 0.1


def test_layers_sorted_and_positive():
    cb = design_layers(3, 0.1)
    cs = [tuple(t.c) for t in cb.layers]
    assert cs == sorted(cs)
    for t in cb.layers:
        assert np.all(t.c > 0)
        assert abs(np.linalg.norm(t.c) - 1.0) < 1e-12


def test_single_layer_codebook():
    central = TorusSpec(np.ones(3) / math.sqrt(3))
    cb = LayerCodebook((central,), 0.4)
    assert cb.size == 1
    assert cb.achieved_sep == math.inf


def test_validate_flags_duplicates():
    # the constructor derives the separation, so a duplicate layer cannot pass
    central = TorusSpec(np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError, match="achieved separation 0.0 below target 0.2"):
        LayerCodebook(layers=(central, central), min_sep=0.2)


def test_greedy_determinism():
    a = design_layers(3, 0.08).to_dict()
    b = design_layers(3, 0.08).to_dict()
    assert a == b


def test_monotone_in_delta_on_fixed_grid():
    # each delta on its own grid of step delta/2
    sizes = [design_layers(3, d).size for d in (0.05, 0.08, 0.12, 0.2)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_separation_invariant(rng):
    for delta in (0.05, 0.1, 0.2, 0.3):
        cb = design_layers(3, delta)
        layers = cb.layers
        worst = min(
            inter_torus_distance(layers[i], layers[j])
            for i in range(len(layers))
            for j in range(i + 1, len(layers))
        )
        assert worst >= 2 * delta - 1e-12
        assert abs(worst - cb.achieved_sep) < 1e-15


def test_infeasible_and_grid_errors():
    with pytest.raises(InfeasibleSeparationError):
        design_layers(2, 0.5)
    with pytest.raises(InfeasibleSeparationError):
        design_layers(3, 0.62)
    with pytest.raises(GridResolutionError):
        design_layers(4, 0.002)  # grid would explode
    with pytest.raises(ValueError, match="need dimension >= 2"):
        design_layers(1, 0.1)
    with pytest.raises(ValueError, match="delta must be positive"):
        design_layers(3, float("nan"))


@pytest.mark.parametrize("n", [3.0, True, "3"])
def test_design_layers_rejects_non_integer_dimension(n):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        design_layers(n, 0.2)
    assert design_layers(np.int64(3), 0.2).layers == design_layers(3, 0.2).layers


def test_json_roundtrip():
    cb = design_layers(2, 0.25)
    again = LayerCodebook.from_dict(json.loads(json.dumps(cb.to_dict())))
    assert again.size == cb.size
    assert again.delta == cb.delta
    for a, b in zip(again.layers, cb.layers):
        assert a == b


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.1])
def test_codebook_rejects_non_finite_or_negative_delta(delta):
    d = design_layers(2, 0.25).to_dict()
    with pytest.raises(ValueError, match="min_sep"):
        LayerCodebook.from_dict(dict(d, delta=delta))
    # zero stays legal: the single-torus baseline has no separation to keep
    assert LayerCodebook.from_dict(dict(d, delta=0.0)).min_sep == 0.0


def test_user_codebook_rejects_bad_separation():
    a = TorusSpec(np.array([0.6, 0.8]))
    b = TorusSpec(np.array([0.61, math.sqrt(1 - 0.61**2)]))
    with pytest.raises(ValueError, match="below target 0.6"):
        LayerCodebook((a, b), 0.6)


def test_separation_rows_match_inter_torus_distance():
    # N=3, delta=0.08 as scheme design builds it: 53 layers, 1378 pairs.  A
    # row-wise norm(..., axis=1) differs from the scalar norm in the last
    # bit on 145 of these pairs and moves the minimum.
    layers = design_layers(3, 0.08, min_coordinate=0.04).layers
    pairs = 0
    for i, d in separation_rows(layers):
        assert d.shape == (len(layers) - 1 - i,)
        for k, dk in enumerate(d.tolist()):
            a, b = layers[i], layers[i + 1 + k]
            assert dk == inter_torus_distance(a, b) == float(np.linalg.norm(a.c - b.c))
            pairs += 1
    assert pairs == 1378
    assert min_separation(layers) == min(
        inter_torus_distance(a, b) for a, b in itertools.combinations(layers, 2)
    )
    assert min_separation(layers[:1]) == math.inf


def test_validate_codebook_reports_injected_violation():
    book = design_layers(3, 0.08, min_coordinate=0.04)
    c = book.layers[10].c + np.array([0.01, -0.01, 0.0])
    layers = list(book.layers)
    layers.insert(11, TorusSpec(c / np.linalg.norm(c)))
    with pytest.raises(ValueError, match="below target"):
        LayerCodebook(layers=tuple(layers), min_sep=book.min_sep)
    forged = LayerCodebook(layers=tuple(layers), min_sep=0.0)
    pairs = [inter_torus_distance(a, b) for a, b in itertools.combinations(layers, 2)]
    assert forged.achieved_sep == min(pairs) < book.min_sep


def test_given_layers_keep_their_order():
    # a file and a caller build the same codebook from the same layers
    cs = [[0.8, 0.6], [0.6, 0.8]]
    given = LayerCodebook(tuple(TorusSpec(np.array(c)) for c in cs), 0.24)
    read = LayerCodebook.from_dict({"delta": 0.12, "layers": [{"c": c} for c in cs]})
    assert [t.c.tolist() for t in given.layers] == cs
    assert [t.c.tolist() for t in read.layers] == cs
    assert [f.name for f in dataclasses.fields(LayerCodebook)] == ["layers", "min_sep"]


def _greedy_one_at_a_time(n, delta, min_coordinate):
    """Reference greedy: each candidate against every accepted layer."""
    cands = layers._angle_grid_candidates(n, delta / 2.0)
    cands = cands[cands.min(axis=1) > min_coordinate]
    accepted = []
    for cand in cands:
        if not accepted or np.min(np.linalg.norm(np.array(accepted) - cand, axis=1)) >= 2 * delta:
            accepted.append(cand)
    return np.array(accepted)


@pytest.mark.parametrize(
    "n, delta, min_coordinate",
    [
        (2, 0.01, 0.0),
        (3, 0.05, 0.025),
        (3, 0.07, 0.0),
        (4, 0.12, 0.06),
        (5, 0.2, 0.1),
        # 376 layers: _GREEDY_PAIRS shrinks the blocks below _GREEDY_BLOCK
        (3, 0.03, 0.015),
    ],
)
def test_block_greedy_matches_one_at_a_time(n, delta, min_coordinate):
    want = _greedy_one_at_a_time(n, delta, min_coordinate)
    # small blocks put block boundaries between close candidates
    for block, pairs in ((layers._GREEDY_BLOCK, layers._GREEDY_PAIRS), (3, 40)):
        with mock.patch.object(layers, "_GREEDY_BLOCK", block), mock.patch.object(
            layers, "_GREEDY_PAIRS", pairs
        ):
            got = design_layers(n, delta, min_coordinate=min_coordinate)
        assert np.array([t.c for t in got.layers]).tobytes() == want.tobytes()
