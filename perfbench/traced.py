"""Traced runs: per-layer metrics from spans around the package's own calls.

Each workload body runs once untraced and once traced, in this process and
with workers=1.  The traced pass wraps the module-level names through which
the package calls itself (for example `simulate.decode_batch` or
`curves.line_spacing`); the benchmark adds spans around its own calls into
each module.  The two passes must give equal outputs, and the ratio of
their wall times is the tracing overhead.
"""

import contextlib
import inspect
import io
import math
import sys
import time
from collections import Counter

import workloads as wl
from tracer import Tracer, summarize


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def instrument(tracer, counts):
    """Wrap every name the package calls itself through; counts collects
    the counters that the spans alone do not give."""
    from toruscodes import cli, codec, curves, layers, simulate

    l1_by_scheme = {}
    w_max_default = inspect.signature(curves.search_best_w).parameters["w_max"].default

    def search_hook(timed, args, kwargs):
        found = timed(*args, **kwargs)
        w_max = int(_arg(args, kwargs, 3, "w_max", w_max_default))
        counts["curves.windows_scanned"] += w_max if found is None else w_max - found[0] + 1
        counts["curves.found"] += found is not None
        return found

    def decode_hook(timed, args, kwargs):
        scheme = _arg(args, kwargs, 0, "scheme")
        counter = _arg(args, kwargs, 3, "counter")
        if counter is None:
            counter = codec.OpCounter()
            kwargs = dict(kwargs, counter=counter)
        before = counter.mults
        result = timed(*args, **kwargs)
        _, layer, undecodable, _ = result
        l1 = l1_by_scheme.get(id(scheme))
        if l1 is None:
            l1 = l1_by_scheme[id(scheme)] = [
                int(abs(cs.u).sum()) for cs in scheme.curves
            ]
        decoded = layer[~undecodable].tolist()
        counts["decode.calls"] += 1
        counts["decode.vectors"] += len(layer)
        counts["decode.mults"] += counter.mults - before
        counts["decode.decoded"] += len(decoded)
        counts["decode.u_l1_sum"] += sum(l1[k] for k in decoded)
        return result

    wrap = tracer.wrap
    wrap(layers, "inter_torus_distance", "torus.inter_torus_distance")
    wrap(codec, "inter_torus_distance", "torus.inter_torus_distance")
    wrap(curves, "embed", "torus.embed")
    wrap(curves, "projection_lattice_basis", "lattices.projection_lattice_basis")
    wrap(curves, "shortest_vector", "lattices.shortest_vector")
    wrap(curves, "line_spacing", "curves.line_spacing")
    wrap(codec, "curve_point", "curves.curve_point")
    wrap(simulate, "search_best_w", "curves.search_best_w", around=search_hook)
    for module in (codec, simulate):
        wrap(module, "build_scheme", "codec.build_scheme")
        wrap(module, "encode_batch", "codec.encode_batch")
    for module in (codec, simulate, cli):
        wrap(module, "decode_batch", "codec.decode_batch", around=decode_hook)


def run_cli(argv, stdin_text):
    """cli.main in this process on the given stdin; returns (status, stdout)."""
    from toruscodes import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    finally:
        sys.stdin = saved
    return status, out.getvalue()


# Each body takes (tc, seed, call) and returns (outputs, facts): outputs
# must not change under tracing, facts feed the metrics and checks.


def design_body(tc, seed, call):
    designed = wl.design_pair(tc, call)
    outputs = {n: scheme.to_dict() for n, (_, scheme, _) in designed.items()}
    return outputs, {"designed": designed}


def mc_body(tc, seed, call):
    scheme = call("setup.load_scheme", wl.load_scheme, tc, wl.read_text(wl.SCHEME_FILES[4]))
    config = wl.mc_config(tc, scheme, seed, wl.MC_TRIALS)
    result = call("simulate.run_mse", tc.run_mse, scheme, config, workers=1)
    return result, {"scheme": scheme, "config": config}


def stream_body(tc, seed, call):
    xs, text = wl.stream_inputs(seed)
    path = wl.SCHEME_FILES[3]
    encoded = call("cli.encode", run_cli, ["encode", "-s", path], text)
    decoded = call("cli.decode", run_cli, ["decode", "-s", path], encoded[1])
    return (encoded, decoded), {"xs": xs}


BODIES = {"design": design_body, "mc-n4": mc_body, "stream-n3": stream_body}


def traced_run(workload, seed, spans_path=None):
    """Returns (per-layer values, [(check name, passed)], report)."""
    tc = wl.import_package()
    body = BODIES[workload]

    start = time.perf_counter()
    plain, facts = body(tc, seed, wl.plain_call)
    untraced_s = time.perf_counter() - start

    counts = Counter()
    with Tracer() as tracer:
        instrument(tracer, counts)
        start = time.perf_counter()
        traced, _ = body(tc, seed, tracer.call)
        traced_s = time.perf_counter() - start
    if spans_path is not None:
        tracer.dump(spans_path)

    checks = {"trace.outputs_equal_untraced": traced == plain}
    report = {"untraced_s": untraced_s, "traced_s": traced_s}
    trials_per_s_2w = 0.0
    if workload == "design":
        counts["layers.count"] = sum(book.size for book, _, _ in facts["designed"].values())
        checks.update(wl.design_checks(tc, facts["designed"]))
    elif workload == "mc-n4":
        scheme, config = facts["scheme"], facts["config"]
        counts["simulate.blocks"] = math.ceil(config.trials / tc.simulate.BLOCK)
        start = time.perf_counter()
        w2 = tc.run_mse(scheme, config, workers=2)
        trials_per_s_2w = config.trials / (time.perf_counter() - start)
        flagged = plain.trials_flagged + w2.trials_flagged
        checks.update(wl.mc_checks(tc, scheme, config, plain, w2, flagged)[0])
        report["mse"] = plain.mse
    else:
        (enc_status, _), (dec_status, decoded) = plain
        checks["stream.exit_0"] = enc_status == 0 and dec_status == 0
        checks["stream.roundtrip"] = wl.stream_errors(facts["xs"], decoded) == 0
        report["lines"] = len(facts["xs"])

    values = layer_values(summarize(tracer.spans), counts, untraced_s, traced_s)
    values["simulate.run_mse.trials_per_s_2w"] = trials_per_s_2w
    return values, list(checks.items()), report


def layer_values(summary, counts, untraced_s, traced_s):
    def s(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "layers.design_layers.s": s("layers.design_layers"),
        "layers.count": counts["layers.count"],
        "curves.search_best_w.self_s": s("curves.search_best_w", "self_s"),
        "curves.search_best_w.calls": calls("curves.search_best_w"),
        "curves.windows_scanned": counts["curves.windows_scanned"],
        "curves.line_spacing.calls": calls("curves.line_spacing"),
        "curves.window_hit_ratio": ratio(counts["curves.found"], calls("curves.line_spacing")),
        "lattices.projection_lattice_basis.s": s("lattices.projection_lattice_basis"),
        "lattices.projection_lattice_basis.calls": calls("lattices.projection_lattice_basis"),
        "lattices.shortest_vector.s": s("lattices.shortest_vector"),
        "lattices.shortest_vector.calls": calls("lattices.shortest_vector"),
        "torus.inter_torus_distance.s": s("torus.inter_torus_distance"),
        "torus.inter_torus_distance.calls": calls("torus.inter_torus_distance"),
        "codec.build_scheme.s": s("codec.build_scheme"),
        "torus.embed.s": s("torus.embed"),
        "curves.curve_point.s": s("curves.curve_point"),
        "codec.encode_batch.s": s("codec.encode_batch"),
        "codec.decode_batch.s": s("codec.decode_batch"),
        "codec.decode_batch.mults_per_vector": ratio(
            counts["decode.mults"], counts["decode.vectors"]
        ),
        "codec.decode_batch.u_l1_mean": ratio(
            counts["decode.u_l1_sum"], counts["decode.decoded"]
        ),
        "codec.decode_batch.vectors_per_call": ratio(
            counts["decode.vectors"], counts["decode.calls"]
        ),
        "simulate.run_mse.self_s": s("simulate.run_mse", "self_s"),
        "simulate.blocks": counts["simulate.blocks"],
        "cli.encode.s": s("cli.encode"),
        "cli.decode.s": s("cli.decode"),
        "cli.decode.self_s": s("cli.decode", "self_s"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
