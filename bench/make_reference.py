"""Regenerate reference.json: exact oracles, check bounds and seed-commit digests.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the root of a checkout, and only at a commit whose outputs are the
reference (the seed commit of this benchmark): the digests it records are
what later runs compare against, and the bounds come from this code's
spread across seeds.

Bounds: for each checked quantity (TV of a jeong/compare job, K of each lgi
protocol), N jobs with seeds 1..N give a mean and a standard deviation; the
bound is mean + 8 sd (TV) or mean -/+ 8 sd (K), rounded outward to 3 decimals.
A wrong walk reads far outside them: the classical walk (gamma 0) is
recorded next to each TV bound, and the three-run K next to the single-run
band.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

from qwalk.cli import main
from qwalk.theory import (UP, StateVector, hadamard_walk, jeong_evolve,
                          table1_closed_form)

import checks
from workloads import WORKLOADS, lgi_shape, make_job, reference_jobs

HERE = Path(__file__).resolve().parent
SIGMAS = 8
TV_SEEDS = {"jeong12": 150, "jeong4": 200, "compare6": 200}
K_SEEDS = 100
PHI1, PHI2 = math.pi / 2, -math.pi / 2


def _run(argv: list[str], out: Path) -> bytes:
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out.read_bytes()


def _with_seed(argv: tuple[str, ...], seed: int) -> list[str]:
    out = list(argv)
    out[out.index("--seed") + 1] = str(seed)
    return out


def _spread(values: list[float]) -> dict:
    return {"n": len(values), "mean": statistics.fmean(values),
            "sd": statistics.stdev(values), "min": min(values), "max": max(values)}


def main_reference() -> None:
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    out = out / "reference.out"
    half = 1 / math.sqrt(2)
    ref: dict = {
        "oracles": {
            "jeong12": jeong_evolve(12, PHI1, PHI2)[-1],
            "jeong4": jeong_evolve(4, PHI1, PHI2)[-1],
            "compare6": jeong_evolve(6, PHI1, PHI2)[-1],
            "robens_minus": hadamard_walk(3, StateVector.basis(-1, UP, half))[1],
            "robens_taps": hadamard_walk(4, StateVector.basis(0, UP))[1],
        },
        "closed_form": {"oracle5": table1_closed_form(5, PHI2)},
        "tv_bounds": {},
        "k_bands": {},
        "calibration": {"rule": f"mean +/- {SIGMAS} sd over seeds 1..n",
                        "lgi_replicates": lgi_shape()[1]},
    }
    templates = {j.kind: j for j in [make_job("jeong_deep", 0, 0)]
                 + [make_job("cli_short", 0, i) for i in range(5)]}
    inf = math.inf
    no_bounds = {**ref, "tv_bounds": {kind: inf for kind in TV_SEEDS},
                 "k_bands": {"three_run": [-inf, inf], "single_run": [-inf, inf]}}
    for kind, n in TV_SEEDS.items():
        job = templates[kind]
        tvs = []
        for seed in range(1, n + 1):
            data = _run(_with_seed(job.argv, seed), out)
            tvs.append(checks.check(kind, job.particles, data, no_bounds)[1]["total_variation"])
        classical = _run(_with_seed(job.argv, 1) + ["--gamma", "0.0"], out)
        spread = _spread(tvs)
        spread["classical_walk_tv"] = checks.check(
            kind, job.particles, classical, no_bounds)[1]["total_variation"]
        ref["calibration"][kind] = spread
        ref["tv_bounds"][kind] = math.ceil(
            (spread["mean"] + SIGMAS * spread["sd"]) * 1000) / 1000
        print(kind, spread, ref["tv_bounds"][kind], file=sys.stderr)

    lgi = make_job("lgi", 0, 0)
    ks: dict[str, list[float]] = {"three_run": [], "single_run": []}
    for seed in range(1, K_SEEDS + 1):
        info = checks.check("lgi", lgi.particles, _run(_with_seed(lgi.argv, seed), out),
                            no_bounds)[1]
        for protocol in ks:
            ks[protocol].append(info[f"{protocol}_K"])
    for protocol, values in ks.items():
        spread = _spread(values)
        ref["calibration"][protocol] = spread
        ref["k_bands"][protocol] = [
            math.floor((spread["mean"] - SIGMAS * spread["sd"]) * 1000) / 1000,
            math.ceil((spread["mean"] + SIGMAS * spread["sd"]) * 1000) / 1000]
        print(protocol, spread, ref["k_bands"][protocol], file=sys.stderr)

    ref["seed_digests"] = {
        job.kind: hashlib.sha256(_run(list(job.argv), out)).hexdigest()
        for workload in WORKLOADS for job in reference_jobs(workload)}
    out.unlink()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main_reference()
