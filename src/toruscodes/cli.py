"""Command-line front-end: design, encode, decode, simulate, tradeoff.

Text-first I/O: schemes and codebooks are JSON, results are CSV, streams
are one value or vector per line.  Every file-producing command writes a
manifest (parameters, seed, input/output digests) next to its output, and
reruns with the same manifest reproduce identical bytes.

Exit codes: 0 success, 1 usage or parse failure, 2 infeasible design.
"""

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .codec import SchemeCode, decode_batch, encode
from .layers import InfeasibleSeparationError, LayerCodebook, design_layers
from .curves import OutOfRangeError
from .simulate import (
    InfeasibleDesignError,
    SimConfig,
    design_scheme,
    format_mse_csv,
    format_tradeoff_csv,
    run_mse,
    tradeoff_table,
)

log = logging.getLogger("toruscodes")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _setup_logging():
    level = os.environ.get("TORUS_JSCC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _write_manifest(out_path, command, params, inputs):
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": params,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {out_path: _sha256(out_path)},
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _load_scheme(path) -> SchemeCode:
    with open(path) as f:
        data = json.load(f)
    if "scheme" in data:
        data = data["scheme"]
    return SchemeCode.from_dict(data)


def _cmd_design(args) -> int:
    codebook = None
    if args.codebook:
        with open(args.codebook) as f:
            codebook = LayerCodebook.from_dict(json.load(f))
    else:
        codebook = design_layers(args.N, args.delta, min_coordinate=args.delta / 2.0)
    scheme = design_scheme(codebook, args.delta, alpha=args.alpha, w_max=args.w_max)
    payload = {"codebook": codebook.to_dict(), "scheme": scheme.to_dict()}
    with open(args.output, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    inputs = [args.codebook] if args.codebook else []
    _write_manifest(
        args.output,
        "design",
        {"N": args.N, "delta": args.delta, "alpha": args.alpha, "w_max": args.w_max},
        inputs,
    )
    print(
        f"layers={scheme.n_layers} total_length={scheme.total_length:.6f} "
        f"ball_radius={scheme.ball_radius:.6f}"
    )
    return 0


def _cmd_encode(args) -> int:
    scheme = _load_scheme(args.scheme)
    status = 0
    for lineno, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            x = float(line)
            y = encode(scheme, x)
        except ValueError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            print("NA")
            status = 1
            continue
        print(" ".join(format(v, ".17g") for v in y))
    return status


def _cmd_decode(args) -> int:
    scheme = _load_scheme(args.scheme)
    status = 0
    for lineno, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            y = np.array([float(tok) for tok in line.split()])
            if y.size != 2 * scheme.dim:
                raise ValueError(f"expected {2 * scheme.dim} coordinates, got {y.size}")
            if not np.all(np.isfinite(y)):
                raise ValueError("coordinates must be finite")
        except ValueError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            print("NA")
            status = 1
            continue
        x_hat, _, undec, _ = decode_batch(scheme, y[None, :])
        if undec[0]:
            print(f"line {lineno}: undecodable (zero magnitudes)", file=sys.stderr)
            print("NA")
            continue
        print(format(float(x_hat[0]), ".17g"))
    return status


def _cmd_simulate(args) -> int:
    scheme = _load_scheme(args.scheme)
    config = SimConfig(sigma=args.sigma, trials=args.trials, seed=args.seed)
    result = run_mse(scheme, config, workers=args.workers)
    log.info("flagged trials: %d", result.trials_flagged)
    sys.stdout.write(format_mse_csv(args.sigma, result))
    return 0


def _cmd_tradeoff(args) -> int:
    deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    if not deltas:
        raise _UsageError("delta grid is empty")
    if any(not (0.0 < d < 0.5) for d in deltas):
        raise _UsageError("all deltas must lie in (0, 0.5)")
    rows = tradeoff_table(args.N, deltas, w_max=args.w_max)
    with open(args.output, "w") as f:
        f.write(format_tradeoff_csv(rows))
    _write_manifest(
        args.output,
        "tradeoff",
        {"N": args.N, "deltas": deltas, "w_max": args.w_max},
        [],
    )
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="toruscodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design layers and curves, write scheme JSON")
    p.add_argument("-N", type=int, required=True, help="torus dimension (>= 2)")
    p.add_argument("--delta", type=float, required=True, help="target small-ball radius")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", type=float, default=1.0, help="power scale (energy alpha^2)")
    p.add_argument("--w-max", type=int, default=10_000)
    p.add_argument("--codebook", help="user-supplied layer codebook JSON")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("encode", help="read x per line on stdin, write vectors")
    p.add_argument("-s", "--scheme", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="read vectors per line on stdin, write x")
    p.add_argument("-s", "--scheme", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo MSE at one noise level")
    p.add_argument("-s", "--scheme", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tradeoff", help="length vs small-ball radius table")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--deltas", required=True, help="comma-separated radii")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--w-max", type=int, default=10_000)
    p.set_defaults(func=_cmd_tradeoff)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleSeparationError, InfeasibleDesignError, OutOfRangeError) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
