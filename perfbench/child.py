"""One fresh-process measurement; prints a single JSON object on stdout.

    python3 perfbench/child.py import
    python3 perfbench/child.py design
    python3 perfbench/child.py mc SEED SECONDS

`import` times the package import, `design` designs both schemes once,
`mc` loads the stored N=4 scheme several times, runs one-block run_mse
calls (seed 1000*SEED + repetition) with workers=1 for about SECONDS, then
runs the two-block check config (seed SEED) once with workers=1 and once
with workers=2.
Peak RSS is this process's own high-water mark.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402

SETUP_REPEATS = 11
MIN_REPEATS = 3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def imported():
    tc = wl.import_package()
    return tc, time.perf_counter() - START


def task_import():
    _, import_s = imported()
    return {"import_s": import_s}


def task_design():
    tc, import_s = imported()
    start = time.perf_counter()
    designed = wl.design_pair(tc)
    design_s = time.perf_counter() - start
    return {
        "import_s": import_s,
        "design_s": design_s,
        "design_n_s": {n: d[2] for n, d in designed.items()},
        "layers": {n: d[0].size for n, d in designed.items()},
        "peak_rss_mb": peak_rss_mb(),
        "checks": wl.design_checks(tc, designed),
    }


def task_mc(seed, seconds):
    tc, import_s = imported()
    text = wl.read_text(wl.SCHEME_FILES[4])
    load_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        scheme = wl.load_scheme(tc, text)
        load_s.append(time.perf_counter() - start)

    w1_s, flagged = [], 0
    phase = time.perf_counter()
    while len(w1_s) < MIN_REPEATS or time.perf_counter() - phase < seconds:
        # a fresh block per repetition, so the peak RSS is a maximum over
        # many blocks rather than a property of one block
        timing = wl.mc_config(tc, scheme, seed * 1000 + len(w1_s), wl.MC_TIMING_TRIALS)
        start = time.perf_counter()
        flagged += tc.run_mse(scheme, timing, workers=1).trials_flagged
        w1_s.append(time.perf_counter() - start)
    rss_w1 = peak_rss_mb()

    config = wl.mc_config(tc, scheme, seed, wl.MC_TRIALS)
    start = time.perf_counter()
    w1 = tc.run_mse(scheme, config, workers=1)
    check_w1_s = time.perf_counter() - start
    start = time.perf_counter()
    w2 = tc.run_mse(scheme, config, workers=2)
    check_w2_s = time.perf_counter() - start
    checks, roundtrip = wl.mc_checks(
        tc, scheme, config, w1, w2, flagged + w1.trials_flagged + w2.trials_flagged
    )
    return {
        "import_s": import_s,
        "load_s": load_s,
        "timing_trials": wl.MC_TIMING_TRIALS,
        "w1_s": w1_s,
        "check_trials": config.trials,
        "check_w1_s": check_w1_s,
        "check_w2_s": check_w2_s,
        "peak_rss_mb": rss_w1,
        "peak_rss_mb_2w": peak_rss_mb(),
        "mse": w1.mse,
        "mse_ci95": w1.mse_ci95,
        "anomaly_rate": w1.anomaly_rate,
        "roundtrip_max_err": roundtrip,
        "checks": checks,
    }


def main(argv):
    task = argv[0]
    if task == "import":
        out = task_import()
    elif task == "design":
        out = task_design()
    elif task == "mc":
        out = task_mc(int(argv[1]), float(argv[2]))
    else:
        raise SystemExit(f"unknown task {task!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
