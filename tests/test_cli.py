import copy
import io
import json
import math
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from toruscodes import cli, codec, design_layers, simulate
from toruscodes.cli import main

PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def scheme_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scheme.json"
    code = main(["design", "-N", "3", "--delta", "0.15", "-o", str(path)])
    assert code == 0
    return path


def test_design_writes_scheme_and_manifest(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code = main(["design", "-N", "2", "--delta", "0.2", "-o", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "layers=" in stdout and "ball_radius=" in stdout
    payload = json.loads(out.read_text())
    assert "codebook" in payload and "scheme" in payload
    assert payload["scheme"]["delta"] >= 0.2
    manifest = json.loads((tmp_path / "scheme.json.manifest.json").read_text())
    assert manifest["command"] == "design"
    assert str(out) in manifest["outputs"]


@pytest.mark.parametrize("n", [3, 4])
def test_design_builds_the_stored_schemes(tmp_path, capsys, n):
    # the benchmark's schemes, stored from the library calls, are what
    # design -N writes: same layers, windings and lengths, in the same order
    out = tmp_path / "scheme.json"
    assert main(["design", "-N", str(n), "--delta", "0.12", "-o", str(out)]) == 0
    capsys.readouterr()
    stored = PERFBENCH_DATA / f"scheme_n{n}_d0.12.json"
    curves = [json.loads(path.read_text())["scheme"]["curves"] for path in (out, stored)]
    designed, want = ([(cs["c"], cs["u"], cs["length"]) for cs in found] for found in curves)
    assert designed == want


def test_design_large_delta_small_codebook(tmp_path, capsys):
    # near the feasibility edge the pipeline still yields a one-layer scheme
    out = tmp_path / "scheme45.json"
    code = main(["design", "-N", "2", "--delta", "0.45", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["scheme"]["curves"]) >= 1
    assert payload["scheme"]["delta"] >= 0.45


def test_design_infeasible_exit_2(tmp_path, capsys):
    code = main(["design", "-N", "2", "--delta", "0.6", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_encode_decode_roundtrip(scheme_file, monkeypatch, capsys):
    xs = ["0.0", "0.123456789", "0.5", "0.987654321"]
    code, out, err = run_cli(
        ["encode", "-s", str(scheme_file)], "\n".join(xs) + "\n", monkeypatch, capsys
    )
    assert code == 0 and err == ""
    vectors = out.strip().splitlines()
    assert len(vectors) == 4
    code, out, err = run_cli(
        ["decode", "-s", str(scheme_file)], "\n".join(vectors) + "\n", monkeypatch, capsys
    )
    assert code == 0
    decoded = [float(line) for line in out.strip().splitlines()]
    for x, x_hat in zip(xs, decoded):
        assert abs(float(x) - x_hat) < 1e-9


def test_encode_domain_guard_continues(scheme_file, monkeypatch, capsys):
    code, out, err = run_cli(
        ["encode", "-s", str(scheme_file)], "0.25\n1.0\n0.75\n", monkeypatch, capsys
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3 and lines[1] == "NA"
    assert "line 2" in err


def test_decode_malformed_and_zero(scheme_file, monkeypatch, capsys):
    zero = " ".join(["0"] * 6)
    code, out, err = run_cli(
        ["decode", "-s", str(scheme_file)],
        f"not a number\n{zero}\n",
        monkeypatch,
        capsys,
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines == ["NA", "NA"]
    assert "line 1" in err and "line 2" in err


def test_decode_vector_at_the_float_maximum(monkeypatch, capsys):
    # the designed N=4, delta=.12 scheme; a line scaled to max|y| = 1.7e308,
    # whose pair magnitudes overflow, decodes as the unscaled line, and
    # nothing warns
    path = PERFBENCH_DATA / "scheme_n4_d0.12.json"
    y = codec.encode(cli._load_scheme(path), 0.77)
    line = " ".join(format(v, ".17g") for v in y / np.abs(y).max() * 1.7e308)
    code, out, err = run_cli(["decode", "-s", str(path)], line + "\n", monkeypatch, capsys)
    assert code == 0 and err == ""
    assert abs(float(out) - 0.77) < 1e-12


def test_decode_zero_vector_alone_exits_0(scheme_file, monkeypatch, capsys):
    # an undecodable vector prints NA and its message but is no parse failure
    zero = " ".join(["0"] * 6)
    code, out, err = run_cli(["decode", "-s", str(scheme_file)], zero + "\n", monkeypatch, capsys)
    assert code == 0
    assert out == "NA\n"
    assert err == "line 1: undecodable (zero magnitudes)\n"


def _line_by_line(lines, convert_line):
    """What a stream command prints when each line is handled on its own:
    (exit status, stdout, stderr)."""
    status, out, err = 0, [], []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            line, message = convert_line(text)
        except ValueError as exc:
            line, message, status = "NA", str(exc), 1
        out.append(line + "\n")
        if message is not None:
            err.append(f"line {lineno}: {message}\n")
    return status, "".join(out), "".join(err)


def _encode_line(scheme, text):
    y = codec.encode(scheme, float(text))
    return " ".join(format(v, ".17g") for v in y), None


def _decode_line(scheme, text):
    y = [float(tok) for tok in text.split()]
    if len(y) != 2 * scheme.dim:
        raise ValueError(f"expected {2 * scheme.dim} coordinates, got {len(y)}")
    if not all(map(math.isfinite, y)):
        raise ValueError("coordinates must be finite")
    res = codec.decode(scheme, y)
    if res.undecodable:
        return "NA", "undecodable (zero magnitudes)"
    return format(res.x_hat, ".17g"), None


def test_stream_blocks_match_line_by_line(scheme_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_STREAM_BLOCK", 3)
    scheme = cli._load_scheme(str(scheme_file))
    # blocks of three non-blank lines: a bad line inside, one of only bad
    # lines, blanks between edges, and a short last block
    enc_lines = [
        "0.1", "abc", "0.2",
        "", "1.0", "nan", "inf",
        "-0.0", "", "   ", "0.5", "0.999",
        "-1e-9", "0.25", "1e-320",
        "0.75  ", "x 1", "",
    ]
    expected = _line_by_line(enc_lines, lambda t: _encode_line(scheme, t))
    argv = ["encode", "-s", str(scheme_file)]
    assert run_cli(argv, "\n".join(enc_lines) + "\n", monkeypatch, capsys) == expected
    assert expected[0] == 1 and expected[1].count("NA") == 6

    vec = {x: _encode_line(scheme, x)[0] for x in ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6")}
    zero = " ".join(["0"] * 6)
    dec_lines = [
        vec["0.1"], zero, vec["0.2"],
        "0.1 0.2", zero, vec["0.3"],
        "", "0 nan 0 0 0 0", "a b c d e f", "0 0 0 0 0 0 1",
        zero, vec["0.4"], "", "inf 0 0 0 0 0",
        vec["0.5"], vec["0.6"], zero,
        "",
    ]
    expected = _line_by_line(dec_lines, lambda t: _decode_line(scheme, t))
    argv = ["decode", "-s", str(scheme_file)]
    assert run_cli(argv, "\n".join(dec_lines) + "\n", monkeypatch, capsys) == expected
    assert expected[0] == 1 and expected[2].count("undecodable") == 4


@pytest.mark.parametrize("n", [1, cli._STREAM_BLOCK])
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_pipe_served_block_by_block(scheme_file, command, n):
    # n lines come back while stdin is still open: a full block, or a single
    # line when no more input is waiting (a producer that waits for each
    # answer).  A block of decode output is smaller than the pipe's write
    # buffer, so this needs the flush.
    scheme = cli._load_scheme(str(scheme_file))
    xs = [repr(i / n) for i in range(n)]
    inputs = xs if command == "encode" else [_encode_line(scheme, x)[0] for x in xs]
    convert = _encode_line if command == "encode" else _decode_line
    expected = [convert(scheme, text)[0] + "\n" for text in inputs]
    argv = [sys.executable, "-m", "toruscodes.cli", command, "-s", str(scheme_file)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    lines = queue.Queue()
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    with subprocess.Popen(argv, **pipes) as proc:
        reader = threading.Thread(target=lambda: [lines.put(line) for line in proc.stdout])
        reader.start()
        try:
            proc.stdin.write("".join(text + "\n" for text in inputs))
            proc.stdin.flush()
            assert [lines.get(timeout=60) for _ in range(n)] == expected
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            reader.join(timeout=60)
    assert lines.empty()


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_encode_rejects_non_finite_alpha(scheme_file, tmp_path, alpha, monkeypatch, capsys):
    data = json.loads(scheme_file.read_text())
    data["scheme"]["alpha"] = alpha
    bad = tmp_path / "scheme.json"
    bad.write_text(json.dumps(data))
    assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
    code, out, err = run_cli(["encode", "-s", str(bad)], "0.25\n", monkeypatch, capsys)
    assert code == 1
    assert out == "" and "alpha" in err


def test_simulate_deterministic(scheme_file, capsys):
    argv = [
        "simulate", "-s", str(scheme_file),
        "--sigma", "0.01", "--trials", "4000", "--seed", "42",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "sigma,mse,ci,anomaly_rate"
    assert main(argv + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_requires_seed(scheme_file, capsys):
    code = main(
        ["simulate", "-s", str(scheme_file), "--sigma", "0.01", "--trials", "100"]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def _broken_scheme(payload, case):
    data = copy.deepcopy(payload)
    scheme = data["scheme"]
    curve = scheme["curves"][0]
    if case == "no-curves":
        del scheme["curves"]
    elif case == "curve-without-u":
        del curve["u"]
    elif case == "curves-not-a-list":
        scheme["curves"] = 5
    elif case == "top-level-list":
        data = [scheme]
    elif case == "huge-u":
        curve["u"][0] = 10**30
    elif case == "fractional-u":
        curve["u"][0] += 0.5
    elif case == "one-dimensional":
        # encode alone could run on it; decode and ball_radius cannot
        scheme["curves"] = [{"c": [1.0], "u": [1]}]
    return data


@pytest.mark.parametrize("command", ["encode", "decode", "simulate"])
@pytest.mark.parametrize(
    "case",
    [
        "no-curves",
        "curve-without-u",
        "curves-not-a-list",
        "top-level-list",
        "huge-u",
        "fractional-u",
        "one-dimensional",
    ],
)
def test_malformed_scheme_file_is_an_error(scheme_file, tmp_path, monkeypatch, capsys, case, command):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_broken_scheme(json.loads(scheme_file.read_text()), case)))
    argv = [command, "-s", str(path)]
    if command == "simulate":
        argv += ["--sigma", "0.01", "--trials", "10", "--seed", "1"]
    stdin = {"encode": "0.5\n", "decode": "1 0 1 0 1 0\n", "simulate": ""}[command]
    code, out, err = run_cli(argv, stdin, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error: ") and str(path) in err
    assert "not a valid scheme file" in err
    assert "Traceback" not in err and out == ""


def _file_with_bad_number(case):
    """(command, file payload) of a scheme or codebook file whose number
    field `case` holds a bool or a string."""
    if case.startswith("codebook"):
        book = {"delta": 0.2, "layers": [{"c": [0.6, 0.8]}]}  # one layer: any min_sep holds
        if case == "codebook-delta-true":
            book["delta"] = True
        else:
            book["layers"][0]["c"] = ["0.6", "0.8"]
        return "design", book
    payload = json.loads((PERFBENCH_DATA / "scheme_n3_d0.12.json").read_text())
    scheme = payload["scheme"]
    if case == "guard-true":
        scheme["guard"] = True
    elif case == "alpha-true":
        scheme["alpha"] = True
    elif case == "alpha-string":
        scheme["alpha"] = "2.5"
    elif case == "c-strings":
        scheme["curves"][0]["c"] = [str(x) for x in scheme["curves"][0]["c"]]
    elif case == "c-one-true":
        scheme["curves"][0]["c"][0] = True
    else:
        # the stored u is [1, -1, 1]: numpy would read [true, -1, 1] as it
        assert scheme["curves"][0]["u"][0] == 1
        scheme["curves"][0]["u"][0] = True
    return "decode", payload


@pytest.mark.parametrize(
    "case, word",
    [
        ("guard-true", "number"),
        ("alpha-true", "number"),
        ("alpha-string", "number"),
        ("c-strings", "number"),
        ("c-one-true", "number"),
        ("u-one-true", "integers"),
        ("codebook-delta-true", "number"),
        ("codebook-c-strings", "number"),
    ],
)
def test_file_numbers_must_be_numbers(tmp_path, monkeypatch, capsys, case, word):
    # json.loads gives true and "2.5" where a number belongs; float() and
    # numpy would take them as 1.0 and 2.5, even among numbers
    command, payload = _file_with_bad_number(case)
    path = tmp_path / "file.json"
    path.write_text(json.dumps(payload))
    if command == "decode":
        argv = ["decode", "-s", str(path)]
    else:
        argv = ["design", "--delta", "0.2", "-o", str(tmp_path / "s.json"), "--codebook", str(path)]
    code, out, err = run_cli(argv, "1 0 1 0 1 0\n", monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error: ") and str(path) in err and word in err
    assert "Traceback" not in err and out == ""


def test_malformed_codebook_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps({"delta": 0.15}))
    argv = ["design", "-N", "3", "--delta", "0.15", "-o", str(tmp_path / "s.json")]
    code = main(argv + ["--codebook", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_design_rejects_nan_codebook_delta(tmp_path, capsys):
    # json writes and reads NaN, which is not valid JSON for other readers
    book = design_layers(2, 0.25).to_dict()
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps(dict(book, delta=float("nan"))))
    out = tmp_path / "s.json"
    argv = ["design", "-N", "2", "--delta", "0.25", "-o", str(out), "--codebook", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_fewer_than_one_worker(scheme_file, capsys, workers):
    argv = ["simulate", "-s", str(scheme_file), "--sigma", "0.01", "--trials", "10", "--seed", "1"]
    code = main(argv + ["--workers", workers])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ") and "workers" in err
    # simulate writes its result to stdout only
    assert "Traceback" not in err and out == ""


def test_simulate_rejects_negative_seed(scheme_file, capsys):
    argv = ["simulate", "-s", str(scheme_file), "--sigma", "0.01", "--trials", "10"]
    code = main(argv + ["--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: seed must be a nonnegative integer")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_rejects_non_finite_sigma(scheme_file, capsys, sigma):
    argv = ["simulate", "-s", str(scheme_file), "--sigma", sigma, "--trials", "10", "--seed", "1"]
    assert main(argv) == 1
    assert "sigma must be finite" in capsys.readouterr().err


def test_tradeoff_csv_and_rerun_identical(tmp_path, capsys):
    out = tmp_path / "tradeoff.csv"
    argv = ["tradeoff", "-N", "3", "--deltas", "0.1,0.15", "-o", str(out), "--w-max", "300"]
    assert main(argv) == 0
    capsys.readouterr()
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
    header, *rows = first.decode().strip().splitlines()
    assert header == "delta,L_single,L_multi"
    for row in rows:
        _, single, multi = row.split(",")
        assert float(multi) >= float(single)


def test_tradeoff_empty_grid(tmp_path, capsys):
    code = main(["tradeoff", "-N", "3", "--deltas", "", "-o", str(tmp_path / "t.csv")])
    assert code == 1


def test_usage_error_exit_1(capsys):
    assert main(["design", "-N", "3"]) == 1  # missing required flags


def test_console_entrypoint_subprocess(scheme_file):
    # true end-to-end through a child process, including exit codes
    proc = subprocess.run(
        [sys.executable, "-m", "toruscodes.cli", "decode", "-s", str(scheme_file)],
        input="0.1 0.2\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "line 1" in proc.stderr

    proc2 = subprocess.run(
        [
            sys.executable, "-m", "toruscodes.cli",
            "simulate", "-s", str(scheme_file),
            "--sigma", "0", "--trials", "500", "--seed", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 0
    mse = float(proc2.stdout.splitlines()[1].split(",")[1])
    assert mse <= 1e-18


def test_cli_import_loads_no_random_or_thread_pool():
    # encode and decode draw no random number and start no thread, so the
    # CLI imports numpy.random and concurrent.futures only where it uses them
    code = (
        "import sys, toruscodes.cli; "
        "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_log_env_var(scheme_file, monkeypatch, capsys):
    monkeypatch.setenv("TORUS_JSCC_LOG", "DEBUG")
    code, out, _ = run_cli(
        ["simulate", "-s", str(scheme_file), "--sigma", "0", "--trials", "200", "--seed", "3"],
        None,
        monkeypatch,
        capsys,
    )
    assert code == 0 and out.splitlines()[0] == "sigma,mse,ci,anomaly_rate"


def test_user_codebook_design(tmp_path, capsys):
    cb_path = tmp_path / "codebook.json"
    cb_path.write_text(
        json.dumps({"delta": 0.15, "layers": [{"c": list(np.ones(3) / np.sqrt(3))}]})
    )
    out = tmp_path / "scheme.json"
    code = main(
        ["design", "-N", "3", "--delta", "0.15", "-o", str(out), "--codebook", str(cb_path)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["scheme"]["curves"]) == 1


def _two_dim_codebook(tmp_path):
    # two layers, not in sorted order: design keeps the order given
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps({"delta": 0.12, "layers": [{"c": [0.8, 0.6]}, {"c": [0.6, 0.8]}]}))
    return path


def test_design_codebook_sets_dimension(tmp_path, capsys):
    cb = _two_dim_codebook(tmp_path)
    out = tmp_path / "s.json"
    assert main(["design", "--delta", "0.12", "-o", str(out), "--codebook", str(cb)]) == 0
    capsys.readouterr()
    curves = json.loads(out.read_text())["scheme"]["curves"]
    assert [c["c"] for c in curves] == [[0.8, 0.6], [0.6, 0.8]]
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["parameters"]["N"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-N", "3", "--delta", "0.12", "--codebook"], "-N 3 differs from the codebook"),
        (["-N", "2", "--delta", "nan", "--codebook"], "delta must be positive"),
        (["--delta", "0.2"], "-N is required without --codebook"),
    ],
    ids=["dimension-mismatch", "nan-delta", "no-codebook-no-N"],
)
def test_design_rejects_bad_parameters(tmp_path, capsys, argv, message):
    out = tmp_path / "s.json"
    if argv[-1] == "--codebook":
        argv = argv + [str(_two_dim_codebook(tmp_path))]
    code = main(["design", "-o", str(out)] + argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_design_codebook_infeasible_exit_2(tmp_path, capsys):
    # no layer of the codebook has 2*min(c) above this radius
    out = tmp_path / "s.json"
    cb = _two_dim_codebook(tmp_path)
    assert main(["design", "--delta", "1.3", "-o", str(out), "--codebook", str(cb)]) == 2
    assert capsys.readouterr().err.startswith("infeasible design: ")
    assert not out.exists()


def test_design_codebook_closer_than_2_delta_exit_2(tmp_path, capsys):
    # the layers are 0.283 apart: no scheme on them has ball radius 0.2
    out = tmp_path / "s.json"
    cb = _two_dim_codebook(tmp_path)
    assert main(["design", "--delta", "0.2", "-o", str(out), "--codebook", str(cb)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible design: ") and "below 2*delta = 0.4" in err
    assert not out.exists()
    assert not (tmp_path / "s.json.manifest.json").exists()


@pytest.mark.parametrize("n", ["0", "-1", "1"])
def test_tradeoff_rejects_dimension_below_2(tmp_path, capsys, n):
    out = tmp_path / "t.csv"
    assert main(["tradeoff", "-N", n, "--deltas", "0.1", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need dimension >= 2")
    assert "Traceback" not in err
    assert not out.exists()

@pytest.mark.parametrize("deltas", ["0.1,0.5", "0", "nan"])
def test_tradeoff_rejects_delta_outside_range(tmp_path, capsys, deltas):
    out = tmp_path / "t.csv"
    assert main(["tradeoff", "-N", "3", "--deltas", deltas, "-o", str(out)]) == 1
    assert "all deltas must lie in (0, 0.5)" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_layer_design(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("layers designed before the arguments were checked")

    monkeypatch.setattr(simulate, "design_layers", refuse)


@pytest.mark.parametrize("command", ["design", "tradeoff"])
def test_dimension_without_target_fails_before_layers(tmp_path, capsys, no_layer_design, command):
    out = tmp_path / "out"
    deltas = ["--delta", "0.12"] if command == "design" else ["--deltas", "0.12"]
    assert main([command, "-N", "5", *deltas, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no built-in target lattice for torus dimension 5\n"
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
def test_bad_alpha_rejected_at_parse(tmp_path, capsys, no_layer_design, monkeypatch, alpha):
    def refuse(*args, **kwargs):
        raise AssertionError("window search ran before the arguments were checked")

    monkeypatch.setattr(simulate, "_search_layers", refuse)
    out = tmp_path / "out"
    assert main(["design", "-N", "3", "--delta", "0.12", "-o", str(out), "--alpha", alpha]) == 1
    err = capsys.readouterr().err
    assert err == "error: argument --alpha: alpha must be finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "tradeoff"])
@pytest.mark.parametrize("w_max", ["0", "-3"])
def test_w_max_below_1_rejected_at_parse(tmp_path, capsys, no_layer_design, command, w_max):
    out = tmp_path / "out"
    deltas = ["--delta", "0.12"] if command == "design" else ["--deltas", "0.12"]
    assert main([command, "-N", "3", *deltas, "-o", str(out), "--w-max", w_max]) == 1
    err = capsys.readouterr().err
    assert err == f"error: argument --w-max: must be >= 1, got {w_max}\n"
    assert not out.exists()
