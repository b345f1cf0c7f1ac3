"""Command-line surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ndnshield.cli import main
from test_golden import output_digests

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = SRC / "ndnshield" / "scenarios" / "chain_flood.json"


def small_scenario(tmp_path) -> Path:
    doc = {
        "name": "cli-small", "duration_ms": 300, "seed": 3,
        "nodes": [
            {"id": "p", "role": "producer", "prefix": "/v", "static_names": ["a"]},
            {"id": "r", "role": "router"},
            {"id": "c", "role": "consumer",
             "requests": {"names": ["/v/a"], "at_ms": [5], "retries": 0}},
        ],
        "links": [
            {"endpoints": ["c", "r"], "bandwidth_mbps": 100, "delay_ms": 1},
            {"endpoints": ["r", "p"], "bandwidth_mbps": 100, "delay_ms": 1},
        ],
        "fib": {"r": [{"prefix": "/v", "next_hops": ["p"]}]},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "6 nodes" in out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "duration_ms": 10, "nodes": [], "links": [],
                               "mystery": 1}))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "mystery" in out


def test_run_writes_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NDNSHIELD_OUT", raising=False)
    scenario = small_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir), "--replicates", "2"]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["cli-small_base_rep0.csv", "cli-small_base_rep1.csv",
                     "cli-small_summary.json"]
    summary = json.loads((out_dir / "cli-small_summary.json").read_text())
    assert summary["arms"]["base"]["aggregate"]["honest_satisfaction_ratio"]["mean"] == 1.0


def test_run_env_override(tmp_path, capsys, monkeypatch):
    scenario = small_scenario(tmp_path)
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("NDNSHIELD_OUT", str(env_dir))
    assert main(["run", str(scenario), "--out", str(tmp_path / "ignored")]) == 0
    assert env_dir.exists() and any(env_dir.iterdir())
    assert not (tmp_path / "ignored").exists()
    assert f"metrics written under {env_dir.resolve()}" in capsys.readouterr().out


def test_bench_crypto_runs(capsys):
    assert main(["bench-crypto", "--size", "600"]) == 0
    out = capsys.readouterr().out
    assert "content-hash verify" in out
    assert "RSA-1024(e=3) verify" in out
    assert "ratio" in out


def _in_fresh_interpreter(show: str, *argv: str, blocked: str = "") -> str:
    """What `show` evaluates to in a fresh interpreter that has blocked the
    import of `blocked` (if given), imported the CLI and, given `argv`, run
    `ndnshield` with it."""
    code = (f"import sys; sys.modules.update(dict.fromkeys({blocked!r}.split())); "
            "import ndnshield, ndnshield.experiment, ndnshield.cli; "
            f"argv = {list(argv)!r}; argv and ndnshield.cli.main(argv); print({show})")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


def _loaded_after_import(package: str, *argv: str) -> str:
    """The modules of `package` loaded in a fresh interpreter once it has
    imported the CLI and, given `argv`, run `ndnshield` with it."""
    return _in_fresh_interpreter(
        f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r})", *argv)


def test_import_leaves_numpy_unloaded():
    """numpy costs a run about a third of its start-up; nothing on the
    path of `ndnshield run` may import it."""
    assert _loaded_after_import("numpy") == "[]"


def test_import_leaves_ctypes_unloaded():
    """Key generation loads ctypes on first use, not at import."""
    assert _loaded_after_import("ctypes") == "[]"


def test_run_leaves_cryptography_unloaded(tmp_path):
    """The package signs through libcrypto and verifies in plain Python;
    `cryptography` is a test oracle only, loaded neither by the import nor
    by a run that generates keys, signs and verifies."""
    assert _loaded_after_import("cryptography") == "[]"
    run = ["run", str(small_scenario(tmp_path)), "--out", str(tmp_path / "out")]
    assert _loaded_after_import("cryptography", *run) == "[]"


@pytest.mark.parametrize("package", ["dataclasses", "inspect"])
def test_no_generated_code_at_import_or_run(package, tmp_path):
    """The types declare their fields to `schema.Record`, which generates no
    code: neither the import nor a run loads `dataclasses` or the `inspect`
    it would import, which cost start-up two thirds of the package import."""
    assert _loaded_after_import(package) == "[]"
    run = ["run", str(small_scenario(tmp_path)), "--out", str(tmp_path / "out")]
    assert _loaded_after_import(package, *run) == "[]"


def test_run_without_hashlib_takes_the_pow_signer_and_writes_the_same_bytes(tmp_path):
    """Where `_hashlib` is missing, key generation and signing run on
    builtin pow; the output is byte for byte a normal run's."""
    doc = json.loads(FIXTURE.read_text())
    doc["duration_ms"] = 2000
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(doc))
    crypto = "ndnshield.crypto"
    signers = (f"sorted({{key.sign.__qualname__ for key, _ in {crypto}._FRESH_KEYS.values()}}), "
               f"{crypto}._libcrypto() is None")
    blocked = _in_fresh_interpreter(signers, "run", str(cut), "--out", str(tmp_path / "blocked"),
                                    blocked="_hashlib")
    assert blocked == "['_pow_signer.<locals>.sign'] True"
    assert main(["run", str(cut), "--out", str(tmp_path / "normal")]) == 0
    assert output_digests(tmp_path / "blocked") == output_digests(tmp_path / "normal")


SEEDS = "is not an integer in 0..18446744073709551615"


@pytest.mark.parametrize("argv, error", [
    (["run", str(FIXTURE), "--seed", "-1"], f"argument --seed: '-1' {SEEDS}"),
    (["run", str(FIXTURE), "--seed", str(2 ** 64)], f"argument --seed: '{2 ** 64}' {SEEDS}"),
    (["run", str(FIXTURE), "--replicates", "0"], "--replicates: '0' is not an integer in 1..inf"),
    (["bench-crypto", "--size", "0"], "argument --size: '0' is not an integer in 1..inf"),
], ids=["negative-seed", "huge-seed", "no-replicates", "empty-packet"])
def test_option_out_of_range_is_a_usage_error(argv, error, capsys):
    """Each crashed inside the run (`OverflowError` in `Rng`, `IndexError`
    aggregating no replicates, `ZeroDivisionError` timing empty packets)."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_run_and_validate_report_a_bad_document_alike(command, tmp_path, capsys):
    """Violations at their `$.` paths and exit 1; an unreadable file exits
    2. `run` printed a `ScenarioError` traceback for the first, and both
    commands a `FileNotFoundError` one for the second."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "duration_ms": 0, "nodes": [], "links": []}))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(bad), *out]) == 1
    assert capsys.readouterr().out == f"{bad}: INVALID\n  $.duration_ms: must be positive\n"
    missing = tmp_path / "missing.json"
    assert main([command, str(missing), *out]) == 2
    assert capsys.readouterr().err == f"{missing}: cannot read (No such file or directory)\n"
    assert not (tmp_path / "out").exists()
