"""Command-line interface: schemas, exit codes, seeding, idempotence."""
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from qwalk import cli
from qwalk.cli import CSV_HEADER, DEFAULT_SEED, LGI_CSV_HEADER, main
from qwalk.leggett_garg import LgiComponents, LgiResult
from qwalk.network import _compiled
from qwalk.theory import jeong_evolve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- site reports ---------------------------------------------------------------

def test_jeong_csv_schema_and_values(capsys):
    code, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "5000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [-2, 0, 2]
    counts = [int(r[1]) for r in rows]
    assert sum(counts) == 5000
    oracle = [float(r[3]) for r in rows]
    assert oracle == pytest.approx([0.25, 0.5, 0.25])
    freqs = [float(r[2]) for r in rows]
    assert all(abs(f - p) < 0.05 for f, p in zip(freqs, oracle))

def test_jeong_json_report_structure(capsys):
    code, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "2000",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"config", "results", "metrics"}
    assert report["config"]["seed"] == DEFAULT_SEED
    assert report["config"]["mode"] == "jeong"
    assert report["config"]["particles"] == 2000
    assert "total_variation" in report["metrics"]
    assert sum(r["count"] for r in report["results"]["sites"]) == 2000

def test_robens_panels_and_removal(capsys):
    code, out, _ = run_cli(capsys, "robens", "--particles", "3000", "--taps",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    panels = report["results"]["panels"]
    merged = {}
    for key in ("t2_minus", "t2_plus"):
        for row in panels[key]:
            merged[row["site"]] = merged.get(row["site"], 0) + row["count"]
    totals = {r["site"]: r["count"] for r in report["results"]["sites"]}
    assert merged == totals

    code, out, _ = run_cli(capsys, "robens", "--particles", "3000",
                           "--removal", "minus", "--format", "json")
    report = json.loads(out)
    assert report["results"]["removed"] > 0
    kept = sum(r["count"] for r in report["results"]["sites"])
    assert kept + report["results"]["removed"] == 3000
    # the x2=-1 branch never reaches x=+4
    assert {r["site"]: r["count"] for r in report["results"]["sites"]}[4] == 0

def test_oracle_rows_and_closed_form_diff(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--steps", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    probs = {r["site"]: r["oracle_probability"] for r in report["results"]["sites"]}
    assert probs[-3] == pytest.approx(11 / 32, abs=1e-12)
    assert probs[1] == pytest.approx(4 / 32, abs=1e-12)
    assert probs[5] == pytest.approx(1 / 32, abs=1e-12)
    assert report["metrics"]["closed_form_max_abs_diff"] < 1e-12
    assert all(r["count"] == 0 for r in report["results"]["sites"])

def test_oracle_hadamard_walk(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--steps", "4", "--walk", "hadamard",
                           "--format", "json")
    report = json.loads(out)
    probs = {r["site"]: r["oracle_probability"] for r in report["results"]["sites"]}
    assert probs[-2] == pytest.approx(10 / 16, abs=1e-12)

def test_compare_reports_absolute_errors(capsys):
    code, out, _ = run_cli(capsys, "compare", "--network", "jeong", "--steps", "3",
                           "--particles", "4000", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["mode"] == "compare"
    assert report["config"]["network"] == "jeong"
    errors = {r["site"]: r["abs_error"] for r in report["results"]["abs_errors"]}
    assert all(e < 0.05 for e in errors.values())


# --- lgi ------------------------------------------------------------------------

def test_lgi_report(capsys):
    code, out, err = run_cli(capsys, "lgi", "--particles", "2000",
                             "--replicates", "2", "--workers", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == LGI_CSV_HEADER
    assert lines[1].startswith("three_run,")
    assert lines[2].startswith("single_run,")
    assert "three_run: K =" in err and "single_run: K =" in err

def test_lgi_single_replicate_is_config_error(capsys):
    code, _, err = run_cli(capsys, "lgi", "--replicates", "1")
    assert code == 2
    assert "replicates" in err

def test_lgi_too_few_particles_names_the_flag(capsys):
    # one particle per run leaves a filtered run with no counts: bad input,
    # reported on one line, not an invariant breach
    code, _, err = run_cli(capsys, "lgi", "--particles", "1", "--replicates",
                           "2", "--workers", "1", "--seed", "123456789")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("qwalk: ")
    assert "--particles" in err

def test_lgi_zero_stderr_at_k_of_one_prints_zero_excess(capsys, monkeypatch):
    def fake_protocols(protocols, *, replicates, **_kwargs):
        comps = LgiComponents(0.0, 0.0, 0.5, 0.5)
        return [(LgiResult(1.0, 0.0, protocol, comps, replicates), [])
                for protocol, _rng in protocols]

    monkeypatch.setattr(cli, "run_protocols", fake_protocols)
    code, _, err = run_cli(capsys, "lgi", "--replicates", "2", "--workers", "1")
    assert code == 0
    assert err.count("(K - 1 = +0.0 stderr)") == 2

def test_unexpected_exception_exits_3_on_one_line(capsys, monkeypatch):
    def broken(_cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_jeong", broken)
    code, out, err = run_cli(capsys, "jeong", "--particles", "10")
    assert code == 3
    assert out == ""
    assert err == "qwalk: internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


# --- config and seed handling -----------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("jeong", "--gamma", "1.0"),
    ("jeong", "--gamma", "-0.5"),
    ("jeong", "--steps", "0"),
    ("jeong", "--particles", "0"),
    ("robens", "--replicates", "0"),
    ("jeong", "--seed", "not-a-number"),
    ("jeong", "--phi1", "nan"),
    ("jeong", "--phi1", "inf"),
    ("jeong", "--phi1=-inf"),
    ("jeong", "--phi2", "nan"),
    ("jeong", "--phi2", "inf"),
    ("jeong", "--phi2=-inf"),
    ("lgi", "--workers", "0", "--replicates", "2", "--particles", "10"),
    ("lgi", "--workers", "-1", "--replicates", "2", "--particles", "10"),
    ("lgi", "--particles", "1", "--replicates", "2", "--workers", "1",
     "--seed", "123456789"),
])
def test_invalid_config_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "configuration error" in err

@pytest.mark.parametrize("argv", [
    ("jeong", "--steps", "2", "--particles", str(2 ** 64 + 5)),
    ("robens", "--particles", str(2 ** 63)),
], ids=["jeong 2**64+5", "robens 2**63"])
def test_particle_count_above_the_kernel_bound_exits_2(capsys, argv):
    # more particles than a run counts is one configuration error line,
    # not a run that miscounts or never ends
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"qwalk: configuration error: particles must be in "
                   f"1..{2 ** 63 - 1}, got {argv[-1]}\n")

def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["jeong", "--bogus"])
    assert excinfo.value.code == 2

@pytest.mark.parametrize("argv", [("jeong", "--steps", "x"),
                                  ("robens", "--removal", "sideways"),
                                  ("jeong", "--bogus")],
                         ids=["bad type", "bad choice", "unknown flag"])
def test_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qwalk: ") and len(err.splitlines()) == 1

def test_main_shares_one_parser():
    assert cli.build_parser() is cli.build_parser()

def test_jeong_oracle_is_computed_once_per_exact_argument(capsys):
    # the row is jeong_evolve's last, kept with the compiled networks and
    # shared by every call with the same arguments; 0.0 and -0.0 (and 1
    # and 1.0) key different rows
    def oracle(*args):
        return _compiled(cli._oracle_row, *args)

    row = oracle(5, math.pi / 2, 0.0)
    assert row == jeong_evolve(5, math.pi / 2, 0.0)[-1]
    assert oracle(5, math.pi / 2, 0.0) is row
    assert oracle(5, math.pi / 2, -0.0) is not row
    assert oracle(5, math.pi / 2, 0) is not row
    # a report uses the shared row and leaves it as it was
    before = dict(row)
    for mode in ("jeong", "compare"):
        code, _, _ = run_cli(capsys, mode, "--steps", "5", "--phi2", "0.0",
                             "--particles", "200", "--format", "json")
        assert code == 0
    assert oracle(5, math.pi / 2, 0.0) is row and row == before

#: a valid command, and the bytes a fresh interpreter writes for it
VALID = ["robens", "--taps", "--format", "json", "--particles", "500", "--seed", "8"]

@pytest.fixture(scope="module")
def valid_alone(tmp_path_factory):
    out = tmp_path_factory.mktemp("alone") / "report"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "qwalk.cli", *VALID, "--out", str(out)],
                   env=env, check=True)
    return out.read_bytes()

@pytest.mark.parametrize("bad", [
    ("robens", "--bogus"),
    ("robens", "--removal", "sideways"),
    ("robens", "--particles", "many"),
    ("robens", "--gamma", "1.5"),
], ids=["unknown flag", "bad choice", "bad type", "config error"])
def test_a_bad_command_line_leaves_nothing_behind(tmp_path, capsys, valid_alone,
                                                  bad):
    # the parser and the networks outlive a main() call; after a rejected
    # command line the next call writes what a fresh interpreter writes
    try:
        code = main(list(bad))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    after = tmp_path / "after"
    assert main(VALID + ["--out", str(after)]) == 0
    capsys.readouterr()
    assert after.read_bytes() == valid_alone

def test_mesh_depth_limit_is_config_error(capsys):
    code, _, err = run_cli(capsys, "jeong", "--steps", "13", "--particles", "10")
    assert code == 2
    assert "configuration error" in err
    # the deeper theory-only bound still applies to the oracle
    code, _, _ = run_cli(capsys, "oracle", "--steps", "15")
    assert code == 0
    code, _, _ = run_cli(capsys, "oracle", "--steps", "21")
    assert code == 2
    # the polarized-walk theory has no mesh bound
    code, _, _ = run_cli(capsys, "oracle", "--steps", "21", "--walk", "hadamard")
    assert code == 0

def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QWALK_SEED", "424242")
    code, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                           "--format", "json")
    assert json.loads(out)["config"]["seed"] == 424242
    monkeypatch.delenv("QWALK_SEED")
    _, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                        "--format", "json")
    assert json.loads(out)["config"]["seed"] == DEFAULT_SEED

def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QWALK_SEED", "424242")
    _, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                        "--seed", "7", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 7

def test_random_seed_changes_output(capsys):
    _, out_a, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                          "--seed", "random", "--format", "json")
    _, out_b, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                          "--seed", "random", "--format", "json")
    assert json.loads(out_a)["config"]["seed"] != json.loads(out_b)["config"]["seed"]


# --- file output -------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_identical_config_writes_identical_bytes(tmp_path, capsys, fmt):
    out_a = tmp_path / "a.out"
    out_b = tmp_path / "b.out"
    argv = ["robens", "--particles", "2000", "--taps", "--format", fmt]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()

def test_file_matches_stdout(tmp_path, capsys):
    argv = ["jeong", "--steps", "3", "--particles", "1500"]
    path = tmp_path / "table.csv"
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert path.read_text() == out

def test_unwritable_out_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    missing = tmp_path / "missing" / "table.csv"
    code, out, err = run_cli(capsys, "jeong", "--particles", "10",
                             "--out", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("qwalk:") and len(err.splitlines()) == 1
    # the temp file is written next to the target, then fails to replace it
    target = tmp_path / "a_directory"
    target.mkdir()
    code, out, err = run_cli(capsys, "jeong", "--particles", "10",
                             "--out", str(target))
    assert code == 2
    assert err.startswith("qwalk:") and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["a_directory"]
    assert list(target.iterdir()) == []

def test_empty_out_is_named_as_given(tmp_path, monkeypatch, capsys):
    # an empty --out names no file; it is not stdout, and the temp file,
    # written in the working directory, is removed
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "jeong", "--particles", "10", "--out", "")
    assert (code, out) == (2, "")
    assert err == "qwalk: cannot write : No such file or directory\n"
    assert list(tmp_path.iterdir()) == []

def test_out_file_mode_is_that_of_a_plain_open(tmp_path, capsys):
    argv = ["oracle", "--steps", "3", "--out"]
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    umask = os.umask(0o022)
    try:
        assert main(argv + [str(new)]) == 0
        assert main(argv + [str(kept)]) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == new.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "new.csv"]

def test_gamma_zero_reproduces_binomial(capsys):
    code, out, _ = run_cli(capsys, "jeong", "--steps", "4", "--gamma", "0.0",
                           "--particles", "20000", "--format", "json")
    assert code == 0
    report = json.loads(out)
    freq = {r["site"]: r["frequency"] for r in report["results"]["sites"]}
    binom = {-4: 1 / 16, -2: 4 / 16, 0: 6 / 16, 2: 4 / 16, 4: 1 / 16}
    assert all(abs(freq[x] - binom[x]) < 0.02 for x in binom)

def test_replicates_merge_counts(capsys):
    code, out, _ = run_cli(capsys, "jeong", "--steps", "2", "--particles", "1000",
                           "--replicates", "3", "--format", "json")
    report = json.loads(out)
    assert report["results"]["emitted"] == 3000
    assert sum(r["count"] for r in report["results"]["sites"]) == 3000
