import math
from fractions import Fraction

import numpy as np
import pytest

from toruscodes import (
    CurveSpec,
    DegenerateBasisError,
    InvalidDirectionError,
    LatticeBasis,
    PrimitivityError,
    TorusSpec,
    UnsupportedRankError,
    dual_basis,
    packing_density,
    project_orthogonal,
    projection_lattice_basis,
    shortest_vector,
    unit_ball_volume,
)
from toruscodes.lattices import (
    _closest_in_ball,
    _gram_schmidt,
    _int_det,
    _line_lattice,
    brute_force_shortest,
)
from conftest import brute_projection_shortest, random_primitive

HEX = [[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
HEX_DENSITY = math.pi / math.sqrt(12.0)


def same_lattice(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Equal covolume plus mutual integer coordinates."""
    if a.rank != b.rank:
        return False
    if abs(a.det() - b.det()) > 1e-9 * a.det():
        return False
    for x, y in ((a, b), (b, a)):
        coeffs, *_ = np.linalg.lstsq(y.rows.T, x.rows.T, rcond=None)
        if np.max(np.abs(coeffs - np.round(coeffs))) > 1e-6:
            return False
    return True


def test_gram_examples():
    assert np.allclose(LatticeBasis(np.eye(2)).gram(), np.eye(2))
    assert np.allclose(LatticeBasis([[3.0, 4.0]]).gram(), [[25.0]])
    assert np.allclose(LatticeBasis(HEX).gram(), [[1.0, 0.5], [0.5, 1.0]])


def test_gram_symmetric_positive(rng):
    for _ in range(20):
        rows = rng.standard_normal((3, 5))
        g = LatticeBasis(rows).gram()
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_dual_examples():
    z2 = dual_basis(LatticeBasis(np.eye(2)))
    assert np.allclose(z2.gram(), np.eye(2))
    half = dual_basis(LatticeBasis([[2.0]]))
    assert np.allclose(half.rows, [[0.5]])
    hex_dual = dual_basis(LatticeBasis(HEX))
    expect = np.array([[4.0, -2.0], [-2.0, 4.0]]) / 3.0
    assert np.allclose(hex_dual.gram(), expect, atol=1e-12)
    assert abs(shortest_vector(hex_dual).norm - math.sqrt(4.0 / 3.0)) < 1e-12


def test_dual_pairing_identity(rng):
    rows = rng.standard_normal((3, 4))
    basis = LatticeBasis(rows)
    dual = dual_basis(basis)
    assert np.allclose(basis.rows @ dual.rows.T, np.eye(3), atol=1e-10)


def test_dual_involution(rng):
    for rank, dim in ((2, 2), (3, 3), (4, 5), (2, 4)):
        for _ in range(10):
            basis = LatticeBasis(rng.standard_normal((rank, dim)))
            dd = dual_basis(dual_basis(basis))
            assert abs(dd.det() - basis.det()) < 1e-9 * basis.det()
            assert same_lattice(basis, dd)


def test_project_orthogonal_examples():
    u = np.array([1.0, 1.0])
    assert np.allclose(project_orthogonal(u, u), 0.0, atol=1e-15)
    n = np.array([1.0, -1.0])
    assert np.allclose(project_orthogonal(n, u), n)
    assert np.allclose(project_orthogonal(np.array([1.0, 0.0]), u), [0.5, -0.5])
    with pytest.raises(InvalidDirectionError):
        project_orthogonal(n, np.zeros(2))


def test_projector_properties(rng):
    for _ in range(1000):
        n_hat = rng.standard_normal(4)
        u_hat = rng.standard_normal(4)
        p1 = project_orthogonal(n_hat, u_hat)
        # idempotent, annihilates u_hat, and self-adjoint as a matrix
        assert np.linalg.norm(project_orthogonal(p1, u_hat) - p1) < 1e-12 * (1 + np.linalg.norm(n_hat))
        assert abs(p1 @ u_hat) < 1e-12 * np.linalg.norm(n_hat) * np.linalg.norm(u_hat)
        other = rng.standard_normal(4)
        p2 = project_orthogonal(other, u_hat)
        assert abs(p1 @ other - n_hat @ p2) < 1e-12 * np.linalg.norm(n_hat) * np.linalg.norm(other)


def test_projection_lattice_axis():
    basis = projection_lattice_basis(np.array([1.0, 1.0]), np.array([1, 0]))
    sv = shortest_vector(basis)
    assert abs(sv.norm - 1.0) < 1e-12
    assert np.allclose(np.abs(basis.rows), [[0.0, 1.0]], atol=1e-12)


def test_projection_lattice_diagonal():
    basis = projection_lattice_basis(np.ones(3), np.array([1, 1, 1]))
    assert abs(shortest_vector(basis).norm - math.sqrt(2.0 / 3.0)) < 1e-12
    oracle = brute_projection_shortest(np.ones(3), np.array([1, 1, 1]))
    assert abs(shortest_vector(basis).norm - oracle) < 1e-9


def test_projection_lattice_determinant(rng):
    for _ in range(50):
        c = rng.uniform(0.5, 1.5, size=3)
        u = random_primitive(rng, 3)
        basis = projection_lattice_basis(c, u)
        u_hat = c * u
        lhs = basis.det() * np.linalg.norm(u_hat)
        rhs = float(np.prod(c))
        assert abs(lhs - rhs) < 1e-9 * rhs
        assert np.max(np.abs(basis.rows @ u_hat)) < 1e-9


def test_projection_lattice_matches_brute_oracle(rng):
    for _ in range(20):
        c = rng.uniform(0.5, 1.5, size=3)
        u = random_primitive(rng, 3, lo=-3, hi=3)
        got = shortest_vector(projection_lattice_basis(c, u)).norm
        oracle = brute_projection_shortest(c, u, box=4)
        assert abs(got - oracle) < 1e-9


def test_projection_lattice_zero_patterns(rng):
    # windings with leading/interior zeros exercise the kernel chain edge cases
    for u in ([0, 0, 1], [0, 1, 0], [0, 0, 0, 1], [0, 1, 0, -3], [0, -2, 0, 5]):
        c = rng.uniform(0.5, 1.5, size=len(u))
        basis = projection_lattice_basis(c, np.array(u))
        u_hat = c * np.array(u)
        rel = abs(basis.det() * np.linalg.norm(u_hat) - np.prod(c)) / np.prod(c)
        assert rel < 1e-9
        assert np.max(np.abs(basis.rows @ u_hat)) < 1e-9


def test_projection_lattice_errors():
    with pytest.raises(PrimitivityError):
        projection_lattice_basis(np.ones(2), np.array([2, 4]))
    with pytest.raises(InvalidDirectionError):
        projection_lattice_basis(np.ones(2), np.array([0, 0]))
    with pytest.raises(PrimitivityError):
        projection_lattice_basis(np.ones(2), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        projection_lattice_basis(np.array([1.0, -1.0]), np.array([1, 0]))


@pytest.mark.parametrize("u", [(10**30, 1), (2**63, 1), ("1", "2"), (True, False)])
def test_winding_entry_check_is_shared(u):
    # both entry points refuse what is not a vector of int64-sized integers
    with pytest.raises(PrimitivityError):
        projection_lattice_basis(np.ones(2), u)
    with pytest.raises(PrimitivityError):
        CurveSpec(TorusSpec(np.ones(2) / math.sqrt(2.0)), u)


def test_shortest_vector_examples():
    assert abs(shortest_vector(LatticeBasis(np.eye(2))).norm - 1.0) < 1e-12
    scaled = LatticeBasis(2.0 * np.array(HEX))
    assert abs(shortest_vector(scaled).norm - 2.0) < 1e-12


def test_shortest_vector_tie_break():
    sv = shortest_vector(LatticeBasis(np.eye(2)))
    assert tuple(sv.coefficients) == (0, 1)
    sv_hex = shortest_vector(LatticeBasis(HEX))
    assert tuple(sv_hex.coefficients) == (0, 1)


def test_shortest_vector_consistency():
    sv = shortest_vector(LatticeBasis(HEX))
    assert abs(sv.norm - np.linalg.norm(sv.vector)) < 1e-9
    assert np.any(sv.coefficients != 0)
    assert np.allclose(sv.coefficients.astype(float) @ np.array(HEX), sv.vector)


def test_shortest_vector_vs_brute_force(rng):
    # enumeration can never lose to the cube scan; it must match whenever the
    # true optimum fits inside the cube (skew bases can need huge coefficients)
    found = 0
    matched = 0
    while found < 25:
        rows = rng.uniform(-3, 3, size=(3, 3))
        try:
            basis = LatticeBasis(rows)
            sv = shortest_vector(basis)
        except (DegenerateBasisError, RuntimeError):
            continue
        oracle = brute_force_shortest(basis, coeff_range=10)
        assert sv.norm <= oracle.norm + 1e-9
        if np.max(np.abs(sv.coefficients)) <= 10:
            assert abs(sv.norm - oracle.norm) < 1e-9 * max(oracle.norm, 1.0)
            matched += 1
        found += 1
    assert matched >= 15


def test_closest_in_ball_vs_brute_force(rng):
    # skew bases make the rounded point a poor guess, so the enumeration,
    # seeded with its distance, has to find the closest point on its own;
    # the oracle scans every coefficient vector the dual rows allow
    for _ in range(40):
        m = int(rng.integers(1, 4))
        rows = rng.uniform(-1, 1, size=(m, m + 1))
        if m > 1:
            rows[1:] += rng.integers(-3, 4) * rows[0]
        basis = LatticeBasis(rows)
        target = rng.uniform(-5, 5, size=m)
        seed = np.rint(target)
        bound2 = float(np.sum(((seed - target) @ rows) ** 2)) * (1.0 + 1e-9)
        mu, norms2 = _gram_schmidt(rows)
        z, dist2, nodes = _closest_in_ball(mu, norms2, target.tolist(), bound2)
        assert z is not None and nodes >= 1
        reach = math.sqrt(bound2) * np.linalg.norm(dual_basis(basis).rows, axis=1)
        axes = [np.arange(math.ceil(t - r), math.floor(t + r) + 1) for t, r in zip(target, reach)]
        cand = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        oracle = float(np.min(np.sum(((cand - target) @ rows) ** 2, axis=1)))
        got = float(np.sum(((np.array(z) - target) @ rows) ** 2))
        assert abs(got - dist2) <= 1e-9 * max(got, 1.0)
        assert got <= oracle * (1.0 + 1e-9) + 1e-12


def test_line_lattice_indexes_lines(rng):
    # each reduced kernel row n is a line index: its projected row is the
    # projection of 2*pi*c*n, so the rows span a sublattice of the
    # projection lattice; its covolume det * ||u_hat|| = prod(c) makes it
    # the whole lattice, and for windings small enough for the brute-force
    # box its shortest vector matches the oracle
    for n in (2, 3, 4):
        for hi in (3, 40):
            for _ in range(10):
                c = rng.uniform(0.5, 1.5, size=n)
                u = random_primitive(rng, n, lo=-hi, hi=hi)
                kernel, rows = _line_lattice(c, u)
                u_hat = c * u
                lifted = 2 * math.pi * c * kernel
                proj = lifted - np.outer(lifted @ u_hat, u_hat) / float(u_hat @ u_hat)
                assert np.allclose(rows, proj, atol=1e-9)
                basis = LatticeBasis(rows / (2 * math.pi))
                prod_c = float(np.prod(c))
                assert abs(basis.det() * np.linalg.norm(u_hat) - prod_c) < 1e-9 * prod_c
                if hi == 3:
                    oracle = brute_projection_shortest(c, u, box=4)
                    assert abs(shortest_vector(basis).norm - oracle) < 1e-9


def test_line_lattice_rows_reduced(rng):
    # size reduction against u leaves each row n the representative of its
    # line n + Z*u nearest the hyperplane: |<c*n, u_hat>| / ||u_hat||^2 <= 1/2,
    # checked in exact rational arithmetic (floats are exact rationals), also
    # for long windings with u_1 != 1; with u the rows are a basis of Z^N,
    # and their projections are LLL-reduced (delta = 3/4)
    for n in (2, 3, 4):
        for hi in (40, 300_000):
            for _ in range(10):
                c = rng.uniform(0.5, 1.5, size=n)
                u = [int(x) for x in random_primitive(rng, n, lo=-hi, hi=hi)]
                kernel, rows = _line_lattice(c, u)
                w = [Fraction(x) ** 2 for x in c.tolist()]
                uu = sum(wi * ui * ui for wi, ui in zip(w, u))
                for row in kernel:
                    t = sum(wi * ni * ui for wi, ni, ui in zip(w, row, u)) / uu
                    assert abs(t) <= Fraction(1, 2)
                assert abs(_int_det([u] + kernel)) == 1
                mu, norms2 = _gram_schmidt(rows)
                assert np.all(np.abs(mu) <= 0.5 + 1e-9)
                for i in range(1, n - 1):
                    lovasz = (0.75 - mu[i][i - 1] ** 2) * norms2[i - 1]
                    assert norms2[i] >= lovasz * (1.0 - 1e-9)


def test_rank_guard():
    with pytest.raises(UnsupportedRankError):
        shortest_vector(LatticeBasis(np.eye(9)))


def test_packing_density_examples():
    assert abs(packing_density(LatticeBasis(np.eye(2))) - math.pi / 4.0) < 1e-12
    assert abs(packing_density(LatticeBasis(HEX)) - HEX_DENSITY) < 1e-12
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-12


def test_density_identity_and_bound(rng):
    # the closed form r^(n-1) ||u_hat|| / (2^(n-1) prod c) is the center
    # density of the projection; multiplying by the unit-ball volume gives
    # the packing density (convention: hexagonal density is pi/sqrt(12))
    for n in (3, 4):
        for _ in range(50):
            c = rng.uniform(0.5, 1.5, size=n)
            u = random_primitive(rng, n)
            basis = projection_lattice_basis(c, u)
            dens = packing_density(basis)
            r = shortest_vector(basis).norm
            u_hat_norm = float(np.linalg.norm(c * u))
            center = r ** (n - 1) * u_hat_norm / (2 ** (n - 1) * float(np.prod(c)))
            ident = unit_ball_volume(n - 1) * center
            assert abs(dens - ident) < 1e-9 * ident
            if n == 3:
                assert dens <= HEX_DENSITY + 1e-9


def test_basis_validation():
    with pytest.raises(DegenerateBasisError):
        LatticeBasis([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError):
        LatticeBasis([[1.0], [2.0]])  # rank above dimension
    assert not LatticeBasis(HEX).rows.flags.writeable
