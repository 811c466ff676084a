"""The qwalk benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload {jeong_deep,lgi,cli_short} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a qwalk checkout; it imports the package from
``src/`` and needs no install.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result (an
environment header, every job with its argv, wall time, sha256 and check
outcome, and for traced runs the spans) goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from workloads import WORKLOADS, cpu_count, lgi_shape

HERE = Path(__file__).resolve().parent
LOOP_TIMEOUT_S = 160
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(value, percentile) at the highest percentile with >= ``beyond`` samples above it.

    None when there are too few samples for any such percentile.
    """
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout`` s); returns its rusage."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_loop(args, env: dict, result: Path) -> tuple[dict, float]:
    """Run the workload process; returns its result and its peak RSS in MiB.

    The peak covers the workload process and every descendant it waited for
    (lgi's pool workers, cli_short's fresh interpreters).
    """
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(result.parent),
           "--result", str(result)]
    proc = subprocess.Popen(cmd, env=env)
    usage = _reap(proc, LOOP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text()), usage.ru_maxrss / 1024


def environment(root: Path, args, jobs: list[dict]) -> dict:
    nproc = shutil.which("nproc")
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout)
                 if nproc else None,
        "sched_getaffinity": cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": lgi_shape()[0] if args.workload == "lgi" else 1,
        "job_argv": [j["argv"] for j in jobs if "argv" in j],
    }


def end_to_end(probes: list[dict], jobs: list[dict], peak_rss_mib: float) -> tuple[dict, dict]:
    timed = [j for j in jobs if j["phase"] == "timed"]
    walls = [j["time_s"] for j in timed]
    tail_value, percentile = tail(walls)
    metrics = {
        "setup_s": statistics.median(p["time_s"] for p in probes),
        "particles_per_s": sum(j["particles"] for j in timed) / sum(walls),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "peak_rss_mib": peak_rss_mib,
    }
    return metrics, {"job_s.tail": f"p{percentile:.1f} of {len(walls)} jobs"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qwalk" / "__init__.py").is_file():
        print("bench: no qwalk package under ./src; run from a qwalk checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    try:
        loop, peak_rss_mib = run_loop(args, env, out_dir / f"{stem}.loop.json")
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    jobs = loop["jobs"]
    probes = loop["setup_probes"]
    failed = [j for j in jobs if j["problems"]]
    notes: dict = {}
    if args.trace:
        values = {**loop["metrics"],
                  "cli.import_s": statistics.median(p["import_s"] for p in probes)}
    else:
        values, notes = end_to_end(probes, jobs, peak_rss_mib)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    digests = [j["seed_digest_match"] for j in jobs if j["phase"] == "reference"]
    single_run = [j["info"].get("single_run_verdict") for j in jobs
                  if j.get("kind") == "lgi" and "info" in j]
    report = {
        "environment": environment(root, args, jobs),
        "metrics": metrics,
        "notes": notes,
        "peak_rss_mib": peak_rss_mib,
        "speed_factor_median": statistics.median(
            j["speed"] for j in jobs if "speed" in j),
        "attempted": len(jobs),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(jobs),
        "seed_digest_match": all(digests),
        "single_run_violation_verdicts": single_run.count("violation"),
        **{k: v for k, v in loop.items() if k not in ("jobs", "spans", "metrics")},
        "jobs": jobs,
    }
    result_file = out_dir / f"{stem}.json"
    result_file.write_text(json.dumps(report, indent=1))
    if "spans" in loop:
        (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(loop["spans"]))
    (out_dir / f"{stem}.loop.json").unlink()

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs checked, {len(failed)} failed")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':40s} {report['failed_ratio']:.6g} "
          f"({len(failed)} of {len(jobs)})")
    print(f"  seed-commit digests match: {sum(digests)} of {len(digests)}")
    print(f"  host speed factor (median over jobs, > 1 is slow): "
          f"{report['speed_factor_median']:.3f}")
    if single_run:
        print(f"  single-run verdicts reading 'violation' (not a failure): "
              f"{single_run.count('violation')} of {len(single_run)}")
    for layer, ms in report.get("self_ms_by_layer", {}).items():
        print(f"  self time {layer:30s} {ms:.6g} ms")
    for j in failed[:10]:
        print(f"  FAILED {j['job']} {j['kind']}: {'; '.join(j['problems'])}")
    print(f"  result: {result_file.relative_to(root)}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
