"""Command-line front-end: design, encode, decode, simulate, tradeoff.

Text-first I/O: schemes and codebooks are JSON, results are CSV, streams
are one value or vector per line.  encode and decode read stdin in blocks
of up to 256 non-blank lines, ending a block early when a pipe or
terminal has no more input waiting, and write and flush their output once
per block; encode makes one batch codec call per block, decode one per
vector.
Every file-producing command writes a manifest (parameters, seed,
input/output digests) next to its output, and reruns with the same
manifest reproduce identical bytes.

Exit codes: 0 success, 1 usage or parse failure, 2 infeasible design.  A
stream line that does not parse or lies outside the domain prints NA and
sets exit 1; an undecodable (all-zero) vector prints NA but does not.
"""

import argparse
import hashlib
import json
import logging
import math
import os
import select
import stat
import sys

import numpy as np

from . import __version__, codec
from .codec import SchemeCode, decode_batch
from .layers import InfeasibleSeparationError, LayerCodebook
from .curves import OutOfRangeError
from .simulate import (
    InfeasibleDesignError,
    SimConfig,
    _scheme_codebook,
    design_scheme,
    format_mse_csv,
    format_tradeoff_csv,
    run_mse,
    tradeoff_table,
)

log = logging.getLogger("toruscodes")

_STREAM_BLOCK = 256  # most stdin lines per block (and per encode_batch call) of encode and decode


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


def _load_json(path, what, load):
    """load(data) of the JSON in file path.  A file that is not the JSON
    form of a `what` raises ValueError naming the file, whatever part of it
    is missing or of the wrong type."""
    with open(path) as f:
        text = f.read()
    try:
        return load(json.loads(text))
    except (AttributeError, KeyError, IndexError, TypeError, OverflowError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid {what} file ({type(exc).__name__}: {exc})") from exc


def _load_scheme(path) -> SchemeCode:
    # a design output holds the scheme under "scheme"
    return _load_json(path, "scheme", lambda d: SchemeCode.from_dict(d.get("scheme", d)))


def _cmd_design(args) -> int:
    n = args.N
    if args.codebook:
        codebook = _load_json(args.codebook, "codebook", LayerCodebook.from_dict)
        dim = codebook.layers[0].dim
        if n not in (None, dim):
            raise _UsageError(f"-N {n} differs from the codebook's dimension {dim}")
        n = dim
    elif n is None:
        raise _UsageError("-N is required without --codebook")
    else:
        codebook = _scheme_codebook(n, args.delta)
    scheme = design_scheme(codebook, args.delta, alpha=args.alpha, w_max=args.w_max)
    payload = {"codebook": codebook.to_dict(), "scheme": scheme.to_dict()}
    with open(args.output, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    inputs = [args.codebook] if args.codebook else []
    _write_manifest(
        args.output,
        "design",
        {"N": n, "delta": args.delta, "alpha": args.alpha, "w_max": args.w_max},
        inputs,
    )
    print(
        f"layers={scheme.n_layers} total_length={scheme.total_length:.6f} "
        f"ball_radius={scheme.ball_radius:.6f}"
    )
    return 0


def _window_limit(text) -> int:
    """The --w-max argument: an integer >= 1."""
    try:
        w = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if w < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {w}")
    return w


def _power_scale(text) -> float:
    """The --alpha argument: a float that SchemeCode accepts, finite and
    positive."""
    try:
        alpha = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        codec._check_alpha(alpha)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return alpha


def _may_wait(stream) -> bool:
    """Whether a read of stream can wait for input that select can poll: a
    pipe or a terminal on POSIX.  A regular file or a stream without a
    descriptor never waits, and elsewhere select polls only sockets."""
    if os.name != "posix":
        return False
    try:
        return not stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (OSError, ValueError):  # no descriptor: an in-memory stream
        return False


def _stdin_blocks():
    """Non-blank stdin lines as (line number, stripped text), in lists of up
    to _STREAM_BLOCK.  A block is handed on when it is full or when no more
    input is waiting, so a pipe is served block by block and a terminal, or
    a producer that waits for each answer, is answered at once."""
    poll = _may_wait(sys.stdin)
    block = []
    for lineno, raw in enumerate(sys.stdin, start=1):
        if text := raw.strip():
            block.append((lineno, text))
        if block and (
            len(block) == _STREAM_BLOCK or poll and not select.select([sys.stdin], [], [], 0)[0]
        ):
            yield block
            block = []
    if block:
        yield block


def _convert(convert, rows):
    """convert(rows), or, when it rejects them with ValueError, each row
    converted alone, a rejected row giving its exception."""
    try:
        return convert(rows)
    except ValueError:
        pass
    results = []
    for row in rows:
        try:
            results += convert([row])
        except ValueError as exc:
            results.append(exc)
    return results


def _stream(parse, convert) -> int:
    """The stdin loop shared by encode and decode.

    parse(text) turns one line into a row.  convert(rows) makes the codec
    calls for a block's parsed rows and returns, per row, its output line
    and a stderr message or None.  A line that parse or convert rejects
    with ValueError prints `NA` and its `line N:` message and makes the
    exit status 1.  Output is written and flushed once per block.
    """
    status = 0
    for block in _stdin_blocks():
        rows, bad = [], {}
        for lineno, text in block:
            try:
                rows.append(parse(text))
            except ValueError as exc:
                bad[lineno] = exc
        results = iter(_convert(convert, rows) if rows else ())
        out, err = [], []
        for lineno, _ in block:
            result = bad[lineno] if lineno in bad else next(results)
            if isinstance(result, ValueError):
                line, message = "NA", result
                status = 1
            else:
                line, message = result
            if message is not None:
                err.append(f"line {lineno}: {message}\n")
            out.append(line + "\n")
        sys.stderr.write("".join(err))
        sys.stdout.write("".join(out))
        sys.stdout.flush()
    return status


def _cmd_encode(args) -> int:
    scheme = _load_scheme(args.scheme)

    def convert(xs):
        # encode_batch rejects values outside [0, 1); through the module, as
        # codec.encode calls it, so that a wrapper of codec.encode_batch sees it
        ys = codec.encode_batch(scheme, np.array(xs))
        return [(" ".join(format(v, ".17g") for v in y), None) for y in ys.tolist()]

    return _stream(float, convert)


def _cmd_decode(args) -> int:
    scheme = _load_scheme(args.scheme)
    width = 2 * scheme.dim

    def parse(text):
        y = [float(tok) for tok in text.split()]
        if len(y) != width:
            raise ValueError(f"expected {width} coordinates, got {len(y)}")
        if not all(map(math.isfinite, y)):
            raise ValueError("coordinates must be finite")
        return y

    def convert(ys):
        # one decode_batch call per vector: perfbench's traced stream run
        # pins codec.decode_batch.vectors_per_call at 1 (ROADMAP open item 1)
        ys = np.array(ys)
        results = []
        for i in range(len(ys)):
            x_hat, _, undec, _ = decode_batch(scheme, ys[i : i + 1])
            if undec[0]:
                results.append(("NA", "undecodable (zero magnitudes)"))
            else:
                results.append((format(float(x_hat[0]), ".17g"), None))
        return results

    return _stream(parse, convert)


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
    p.add_argument(
        "-N", type=int, help="torus dimension (>= 2); with --codebook, its dimension by default"
    )
    p.add_argument("--delta", type=float, required=True, help="target small-ball radius")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", type=_power_scale, default=1.0, help="power scale (energy alpha^2)")
    p.add_argument("--w-max", type=_window_limit, default=10_000)
    p.add_argument("--codebook", help="layer codebook JSON, its layers used in the order given")
    p.set_defaults(func=_cmd_design)

    blocks = f"stdin in blocks of up to {_STREAM_BLOCK} lines, output flushed per block"
    p = sub.add_parser("encode", help=f"read x per line on stdin, write vectors ({blocks})")
    p.add_argument("-s", "--scheme", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help=f"read vectors per line on stdin, write x ({blocks})")
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
    p.add_argument("--w-max", type=_window_limit, default=10_000)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
