"""Benchmark of the toruscodes package: one workload per run.

    python3 perfbench/run.py --workload design|mc-n4|stream-n3 \
        [--seed 1] [--seconds 25] [--trace 0|1]

Run from the root of a checkout; the package is imported from `src/`.
With --trace 0 the end-to-end metrics are measured in fresh child
processes; with --trace 1 one traced pass gives the per-layer metrics
(see perfbench/README.md).  The next-to-last line of stdout is a JSON
record of the environment, cost drivers, named metrics and every check;
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count output checks.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

BENCHMARK_FILE = os.path.join(wl.ROOT, "BENCHMARK.json")
WORKLOADS = ("design", "mc-n4", "stream-n3")
SETUP_REPEATS = 7
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


def run_process(argv, stdin_path, stdout_path):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MB).

    os.wait4 reaps the child itself so that its own resource usage, not the
    high-water mark of every child so far, gives the peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=wl.SRC)
    with open(stdin_path or os.devnull) as fin, open(stdout_path, "w") as fout:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, env=env, cwd=wl.ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Workdir:
    """Scratch files of one run, under perfbench/out, removed at the end."""

    def __init__(self):
        self.path = os.path.join(wl.OUT, f"run-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)

    def file(self, name):
        return os.path.join(self.path, name)

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def child(work, *args):
    """Run perfbench/child.py in a fresh interpreter and parse its JSON."""
    out = work.file("child.json")
    argv = [sys.executable, os.path.join(wl.HERE, "child.py"), *map(str, args)]
    code, _, _ = run_process(argv, None, out)
    if code != 0:
        raise RuntimeError(f"child {args} exited with {code}")
    with open(out) as f:
        return json.loads(f.read())


def cli_argv(command, scheme_path):
    return [sys.executable, "-m", "toruscodes.cli", command, "-s", scheme_path]


def median(values):
    return statistics.median(values)


# ---- end-to-end runs (--trace 0) ----------------------------------------
#
# A run repeats its unit of work for --seconds and reports medians over
# the repetitions; the fastest repetition is printed next to each median.


def measure_design(work, seed, seconds):
    import_s = [child(work, "import")["import_s"] for _ in range(SETUP_REPEATS)]
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - start < seconds:
        reps.append(child(work, "design"))
    import_s += [r["import_s"] for r in reps]
    design_s = [r["design_s"] for r in reps]
    per_n = {n: [r["design_n_s"][n] for r in reps] for n in reps[0]["design_n_s"]}
    checks = [(k, v) for r in reps for k, v in r["checks"].items()]
    values = {
        "throughput": 1.0 / median(design_s),
        "setup_s": median(import_s),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    report = {
        "design_s": [median(design_s), "s"],
        "design_s_best": [min(design_s), "s"],
        **{f"design_n{n}_s": [median(times), "s"] for n, times in per_n.items()},
        "import_s": [values["setup_s"], "s"],
        "samples": {"design_s": design_s, "design_n_s": per_n, "import_s": import_s},
        "codebook_layers": reps[0]["layers"],
    }
    return values, checks, report


def measure_mc(work, seed, seconds):
    r = child(work, "mc", seed, seconds)
    rates = [r["timing_trials"] / s for s in r["w1_s"]]
    values = {
        "throughput": median(rates),
        "setup_s": median(r["load_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    report = {
        "mc_trials_per_s": [values["throughput"], "1/s"],
        "mc_trials_per_s_best": [max(rates), "1/s"],
        "mc_trials_per_s_check_1w": [r["check_trials"] / r["check_w1_s"], "1/s"],
        "mc_trials_per_s_2w": [r["check_trials"] / r["check_w2_s"], "1/s"],
        "peak_rss_mb_2w": [r["peak_rss_mb_2w"], "MB"],
        "load_scheme_s": [values["setup_s"], "s"],
        "import_s": [r["import_s"], "s"],
        "mse": r["mse"],
        "mse_ci95": r["mse_ci95"],
        "anomaly_rate": r["anomaly_rate"],
        "roundtrip_max_err": r["roundtrip_max_err"],
        "samples": {"mc_trials_per_s": rates, "load_scheme_s": r["load_s"]},
    }
    return values, list(r["checks"].items()), report


def measure_stream(work, seed, seconds):
    xs, text = wl.stream_inputs(seed)
    scheme = wl.SCHEME_FILES[3]
    source, encoded, decoded = work.file("x.txt"), work.file("y.txt"), work.file("xhat.txt")
    with open(source, "w") as f:
        f.write(text)

    checks, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_process(cli_argv("decode", scheme), None, decoded)
        setup_s.append(wall)
        checks.append(("stream.empty_decode", code == 0 and wl.read_text(decoded) == ""))

    enc_s, dec_s, rss = [], [], []
    start = time.perf_counter()
    while len(enc_s) < MIN_REPEATS or time.perf_counter() - start < seconds:
        enc_code, enc_wall, enc_rss = run_process(cli_argv("encode", scheme), source, encoded)
        dec_code, dec_wall, dec_rss = run_process(cli_argv("decode", scheme), encoded, decoded)
        checks.append(("stream.exit_0", enc_code == 0 and dec_code == 0))
        checks.append(("stream.roundtrip", wl.stream_errors(xs, wl.read_text(decoded)) == 0))
        enc_s.append(enc_wall)
        dec_s.append(dec_wall)
        rss.append(max(enc_rss, dec_rss))
    rates = [len(xs) / (e + d) for e, d in zip(enc_s, dec_s)]
    values = {
        "throughput": median(rates),
        "setup_s": median(setup_s),
        "peak_rss_mb": median(rss),
    }
    report = {
        "stream_lines_per_s": [values["throughput"], "1/s"],
        "stream_lines_per_s_best": [max(rates), "1/s"],
        "encode_s": [median(enc_s), "s"],
        "decode_s": [median(dec_s), "s"],
        "empty_decode_s": [values["setup_s"], "s"],
        "samples": {
            "stream_lines_per_s": rates,
            "encode_s": enc_s,
            "decode_s": dec_s,
            "empty_decode_s": setup_s,
        },
    }
    return values, checks, report


MEASURES = {"design": measure_design, "mc-n4": measure_mc, "stream-n3": measure_stream}


# ---- output --------------------------------------------------------------


def environment():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cost_drivers(workload):
    drivers = {f"scheme_n{n}": wl.scheme_drivers(path) for n, path in wl.SCHEME_FILES.items()}
    if workload == "mc-n4":
        drivers["timing_trials"] = wl.MC_TIMING_TRIALS
        drivers["check_trials"] = wl.MC_TRIALS
        drivers["roundtrip_vectors"] = wl.ROUNDTRIP_VECTORS
    elif workload == "stream-n3":
        drivers["lines"] = wl.STREAM_LINES
    return drivers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not wl.package_available():
        print(f"error: package source not found under {wl.SRC}", file=sys.stderr)
        return 2
    with open(BENCHMARK_FILE) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(wl.OUT, exist_ok=True)

    if args.trace:
        import traced

        spans = os.path.join(wl.OUT, f"spans-{args.workload}-seed{args.seed}.json")
        values, checks, report = traced.traced_run(args.workload, args.seed, spans)
        wanted = spec["per_layer"]
    else:
        work = Workdir()
        try:
            values, checks, report = MEASURES[args.workload](work, args.seed, seconds)
        finally:
            work.close()
        wanted = spec["end_to_end"]

    failed = [name for name, ok in checks if not ok]
    report["failed_frac"] = [len(failed) / len(checks), "1"]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "environment": environment(),
                "cost_drivers": cost_drivers(args.workload),
                "report": report,
                "failed_checks": failed,
                "checks": len(checks),
            }
        )
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
