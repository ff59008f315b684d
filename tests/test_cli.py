import io
import json
import subprocess
import sys

import numpy as np
import pytest

from toruscodes.cli import main


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
