"""Inputs, workload bodies and output checks shared by every benchmark run.

Importing this module touches nothing but the standard library; the
package under test (and numpy with it) is imported by `import_package`, so
that a fresh process can time that import.
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
DELTA = 0.12
SCHEME_FILES = {
    3: os.path.join(DATA, "scheme_n3_d0.12.json"),
    4: os.path.join(DATA, "scheme_n4_d0.12.json"),
}
REFERENCE_FILE = os.path.join(DATA, "reference.json")
MC_TRIALS = 8192  # two Philox blocks, so workers=2 runs them in parallel
MC_TIMING_TRIALS = 4096  # one block per timed run_mse call
ROUNDTRIP_VECTORS = 4096
STREAM_LINES = 10_000
ROUNDTRIP_TOL = 1e-9


def package_available():
    return os.path.isfile(os.path.join(SRC, "toruscodes", "__init__.py"))


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toruscodes

    return toruscodes


def plain_call(name, fn, *args, **kwargs):
    """Untraced stand-in for Tracer.call."""
    return fn(*args, **kwargs)


def read_text(path):
    with open(path) as f:
        return f.read()


def load_scheme(tc, text):
    """The stored scheme as the CLI loads it: JSON text to a SchemeCode."""
    return tc.SchemeCode.from_dict(json.loads(text)["scheme"])


def scheme_drivers(path):
    """Cost drivers of a stored scheme: layers M, dimension N and ||u||_1."""
    with open(path) as f:
        curves = json.load(f)["scheme"]["curves"]
    l1 = [sum(abs(v) for v in cs["u"]) for cs in curves]
    return {
        "M": len(curves),
        "N": len(curves[0]["u"]),
        "u_l1_mean": sum(l1) / len(l1),
        "u_l1_max": max(l1),
    }


# ---- design -------------------------------------------------------------


def design_pair(tc, call=plain_call):
    """design_layers then design_scheme for N=3 and N=4 at delta=DELTA.

    Returns {N: (codebook, scheme, seconds)}.
    """
    out = {}
    for n in sorted(SCHEME_FILES):
        start = time.perf_counter()
        book = call(
            "layers.design_layers", tc.design_layers, n, DELTA, min_coordinate=DELTA / 2.0
        )
        scheme = call("simulate.design_scheme", tc.design_scheme, book, DELTA)
        out[n] = (book, scheme, time.perf_counter() - start)
    return out


def same_design(designed, stored):
    """(c, u) per curve equal, lengths equal to 1e-12 relative."""
    if designed.n_layers != stored.n_layers:
        return False
    for a, b in zip(designed.curves, stored.curves):
        if a.torus.c.tolist() != b.torus.c.tolist() or a.u.tolist() != b.u.tolist():
            return False
        if abs(a.length - b.length) > 1e-12 * b.length:
            return False
    return True


def design_checks(tc, designed):
    checks = {}
    for n, (_, scheme, _) in designed.items():
        stored = load_scheme(tc, read_text(SCHEME_FILES[n]))
        checks[f"design.n{n}.matches_stored"] = same_design(scheme, stored)
    return checks


# ---- mc-n4 --------------------------------------------------------------


def mc_config(tc, scheme, seed, trials):
    return tc.SimConfig(sigma=scheme.alpha * DELTA / 4.0, trials=trials, seed=seed)


def roundtrip_error(tc, scheme, seed):
    """Largest |x_hat - x| over a seeded noiseless batch (inf if undecodable)."""
    import numpy as np

    xs = np.random.default_rng([seed, 1]).random(ROUNDTRIP_VECTORS)
    x_hat, _, undec, _ = tc.decode_batch(scheme, tc.encode_batch(scheme, xs))
    if undec.any():
        return math.inf
    return float(np.max(np.abs(x_hat - xs)))


def mc_checks(tc, scheme, config, w1, w2, flagged):
    """Checks of the check config's workers=1 and workers=2 results.

    flagged counts trials flagged by any run_mse call of the run.  The MSE
    check is one-sided and made only for the config the seed code's
    reference was taken on.  Returns (checks, roundtrip error).
    """
    roundtrip = roundtrip_error(tc, scheme, config.seed)
    checks = {
        "mc.workers_invariant": w2 == w1,
        "mc.no_flagged": flagged == 0,
        "mc.roundtrip": roundtrip <= ROUNDTRIP_TOL,
    }
    with open(REFERENCE_FILE) as f:
        ref = json.load(f)["mc-n4"]
    if (config.seed, config.trials, config.sigma) == (ref["seed"], ref["trials"], ref["sigma"]):
        checks["mc.mse_not_above_reference"] = w1.mse <= ref["mse"] * (1.0 + ref["rel_tol"])
    return checks, roundtrip


# ---- stream-n3 ----------------------------------------------------------


def stream_inputs(seed):
    """Seeded source values, one per line, as the encode command reads them."""
    import numpy as np

    xs = np.random.default_rng([seed, 2]).random(STREAM_LINES).tolist()
    return xs, "".join(f"{x!r}\n" for x in xs)


def stream_errors(xs, decoded_text):
    """Lines that are missing, NA, or further than ROUNDTRIP_TOL from x."""
    lines = decoded_text.splitlines()
    bad = abs(len(lines) - len(xs))
    for x, line in zip(xs, lines):
        try:
            ok = abs(float(line) - x) <= ROUNDTRIP_TOL
        except ValueError:
            ok = False
        bad += not ok
    return bad
