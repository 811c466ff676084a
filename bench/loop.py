"""The workload process: one workload's jobs in a closed loop, each checked.

    python3 bench/loop.py --workload W --seed N --seconds S --trace 0|1 \
        --out-dir DIR --result FILE

run.py starts it with ``src`` on PYTHONPATH and reads FILE when it exits.
One job runs at a time.  In-process jobs call ``qwalk.cli.main``; fresh jobs
start a new interpreter running what the ``qwalk`` console script runs.

Untraced (``--trace 0``):
1. a warm-up set-up probe and the workload's digest-reference jobs, untimed:
   they warm the caches, and the reference outputs are compared with the
   digests of the seed commit;
2. jobs from the workload seed until ``--seconds`` have passed, ending on a
   whole cycle and after at least MIN_JOBS jobs, with SETUP_PROBES set-up
   probes spread evenly between them;
3. the determinism probe: the first timed job again; any byte difference
   fails it.

Traced (``--trace 1``): the same warm-up, then each job twice, once
untraced and once with layer spans (the two outputs must be identical), for
``--seconds`` with the set-up probes between them; then the layer probes of
layers.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import speed
from workloads import (CYCLE_LENGTH, SETUP_NETWORK, WORKLOADS, Job, make_job,
                       reference_jobs)

HERE = Path(__file__).resolve().parent
#: what the ``qwalk`` console script runs
ENTRY = "import sys; from qwalk.cli import main; sys.exit(main())"
MIN_JOBS = 20
SETUP_PROBES = 7
FRESH_TIMEOUT_S = 60


def setup_probe(workload: str) -> dict:
    """One fresh interpreter: import qwalk, build the workload's first network.

    ``wall_s`` runs from the spawn to the probe's report line, so it covers
    interpreter start but not interpreter exit.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *SETUP_NETWORK[workload]]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return {**json.loads(line), "wall_s": wall}


class Runner:
    """Runs jobs and set-up probes, keeps a record of each, checks job outputs.

    Each job's and probe's ``time_s`` is its wall time in reference seconds
    (speed.py): in-process jobs against the in-process loop, fresh-interpreter
    jobs and set-up probes against the fresh-interpreter reference.
    """

    def __init__(self, out_dir: Path, ref: dict, workload: str, seconds: float):
        self.out_dir = out_dir
        self.ref = ref
        self.workload = workload
        self.seconds = seconds
        self.records: list[dict] = []
        self.probes: list[dict] = []
        self.output = out_dir / "job.out"
        self.loop_clock = speed.loop_clock()
        self.fresh_clock = speed.fresh_clock()

    def probe_setup(self, elapsed: float) -> None:
        """Run the set-up probes whose share of the window has passed."""
        while (len(self.probes) < SETUP_PROBES
               and elapsed >= len(self.probes) * self.seconds / SETUP_PROBES):
            self.fresh_clock.before()
            probe = setup_probe(self.workload)
            probe["speed"] = self.fresh_clock.after()
            probe["time_s"] = probe["wall_s"] / probe["speed"]
            self.probes.append(probe)

    def execute(self, job: Job, phase: str, tracer: tracing.Tracer | None = None) -> dict:
        """Run one job; returns its record (wall time, digest, problems)."""
        job_id = f"{phase}-{len(self.records)}"
        argv = [*job.argv, "--out", str(self.output)]
        self.output.unlink(missing_ok=True)
        if tracer:
            tracer.job = job_id
        run, clock = ((self._fresh, self.fresh_clock) if job.fresh
                      else (self._in_process, self.loop_clock))
        clock.before()
        try:
            wall, problem = run(argv, tracer)
        finally:
            if tracer:
                tracer.job = None
        factor = clock.after()
        data = self.output.read_bytes() if self.output.exists() else b""
        record = {"phase": phase, "job": job_id, "kind": job.kind,
                  "argv": list(job.argv), "particles": job.particles,
                  "wall_s": wall, "speed": factor, "time_s": wall / factor,
                  "bytes": len(data),
                  "sha256": hashlib.sha256(data).hexdigest(),
                  "problems": [problem] if problem else [], "data": data}
        self.records.append(record)
        return record

    @staticmethod
    def _in_process(argv, tracer) -> tuple[float, str | None]:
        from qwalk.cli import main
        restore = tracing.install(tracer) if tracer else None
        code, problem = None, None
        try:
            with contextlib.redirect_stderr(io.StringIO()), \
                    (tracer.span("job") if tracer else contextlib.nullcontext()):
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a failed job, recorded as such
                    problem = f"raised {type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
        finally:
            if restore:
                restore()
        if problem is None and code != 0:
            problem = f"exit code {code}"
        return wall, problem

    def _fresh(self, argv, tracer) -> tuple[float, str | None]:
        spans_file = self.out_dir / "job.spans.json"
        if tracer:
            cmd = [sys.executable, str(HERE / "traced_job.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        with (tracer.span("job") if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=FRESH_TIMEOUT_S)
            wall = time.perf_counter() - t0
        problem = None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problem = f"exit code {proc.returncode}: {' '.join(tail)}"
        if tracer and spans_file.exists():
            root = tracer.spans[-1]
            tracer.adopt(json.loads(spans_file.read_text()), root.id, root.job)
            spans_file.unlink()
        return wall, problem

    def check(self, record: dict) -> None:
        problems, info = checks.check(record["kind"], record["particles"],
                                      record["data"], self.ref)
        record["problems"] += problems
        record["info"] = info


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    cycle = CYCLE_LENGTH[workload]
    _reference(runner, workload)
    timed = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(timed) % cycle
           or len(timed) < MIN_JOBS):
        runner.probe_setup(time.perf_counter() - start)
        timed.append(runner.execute(make_job(workload, seed, len(timed)), "timed"))
    window = time.perf_counter() - start
    runner.probe_setup(math.inf)
    probe = runner.execute(make_job(workload, seed, 0), "determinism")
    if probe["sha256"] != timed[0]["sha256"]:
        probe["problems"].append("output differs from the first run with the same seed")
    return {"window_s": window}


def run_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    import layers
    cycle = CYCLE_LENGTH[workload]
    _reference(runner, workload)
    tracer = tracing.Tracer()
    untraced, traced, cycles = [], [], []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        runner.probe_setup(time.perf_counter() - start)
        ids = set()
        for _ in range(cycle):
            job = make_job(workload, seed, len(traced))
            plain = runner.execute(job, "untraced")
            spanned = runner.execute(job, "traced", tracer)
            if spanned["sha256"] != plain["sha256"]:
                spanned["problems"].append("tracing changed the output bytes")
            untraced.append(plain)
            traced.append(spanned)
            ids.add(spanned["job"])
        cycles.append(ids)

    runner.probe_setup(math.inf)
    restore = tracing.install(tracer)
    try:
        problems = layers.lgi_split(tracer, seed)
    finally:
        restore()
    if problems:
        runner.records.append({"phase": "lgi_split", "job": "lgi_split",
                               "kind": "lgi_split", "problems": problems,
                               "data": b""})
    spans = tracer.spans
    job_ids = set().union(*cycles)
    metrics = {}
    metrics.update(layers.core_probe())
    metrics.update(layers.theory_probe())
    metrics.update(layers.taps_probe())
    metrics.update(layers.lgi_metrics(spans))
    metrics.update(layers.network_metrics(
        spans, [{"lgi_split"}] if workload == "lgi" else cycles))
    metrics.update(layers.job_metrics(spans, job_ids))
    metrics["cli.output_bytes"] = sum(r["bytes"] for r in traced[:cycle])
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["time_s"] for r in traced)
        / statistics.median(r["time_s"] for r in untraced) - 1.0)
    self_ns = tracing.self_time_by_layer([s for s in spans if s.job in job_ids])
    return {"metrics": metrics,
            "self_ms_by_layer": {k: v / 1e6 for k, v in sorted(self_ns.items())},
            "spans": tracing.to_json(spans)}


def _reference(runner: Runner, workload: str) -> None:
    setup_probe(workload)  # warm-up: byte-compiles, fills the file cache
    for job in reference_jobs(workload):
        record = runner.execute(job, "reference")
        record["seed_digest_match"] = (
            record["sha256"] == runner.ref["seed_digests"].get(job.kind))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    ref = json.loads((HERE / "reference.json").read_text())
    runner = Runner(args.out_dir, ref, args.workload, args.seconds)
    run = run_traced if args.trace else run_untraced
    result = run(runner, args.workload, args.seed, args.seconds)
    for record in runner.records:
        if record["data"]:
            runner.check(record)
        elif not record["problems"]:
            record["problems"].append("no output")
        del record["data"]
    result["setup_probes"] = runner.probes
    result["jobs"] = runner.records
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
