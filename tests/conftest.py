import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from toruscodes import SchemeCode, TorusSpec

STORED = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def random_torus(rng, n, floor=0.2):
    """Random torus whose smallest coordinate radius stays bounded away from 0."""
    c = np.abs(rng.standard_normal(n)) + floor
    return TorusSpec(c / np.linalg.norm(c))


def random_primitive(rng, n, lo=-5, hi=5):
    while True:
        u = rng.integers(lo, hi + 1, size=n)
        g = 0
        for x in u:
            g = math.gcd(g, int(abs(x)))
        if g == 1:
            return u.astype(np.int64)


def brute_projection_shortest(c, u, box=3):
    """Oracle: min norm of projections of lattice points n*C onto u_hat-perp."""
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    u_hat = c * u
    uu = float(u_hat @ u_hat)
    n = c.size
    grids = np.meshgrid(*([np.arange(-box, box + 1)] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(float) * c
    proj = pts - np.outer(pts @ u_hat, u_hat) / uu
    norms = np.linalg.norm(proj, axis=1)
    nonzero = norms > 1e-9
    return float(norms[nonzero].min())


def stored_scheme(n):
    """The stored N=n, delta=0.12 scheme, the one toruscodes design writes,
    loaded afresh: nothing derived from its curves is built yet."""
    payload = json.loads((STORED / f"scheme_n{n}_d0.12.json").read_text())
    return SchemeCode.from_dict(payload["scheme"])


def _call_counts(run, *functions):
    """Calls of each function while run() runs, whatever name its caller
    reached it by: a module may hold it under its own import."""
    codes = [f.__code__ for f in functions]
    counts = [0] * len(functions)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240)
