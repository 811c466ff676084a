"""The three workloads: which qwalk jobs each one runs, derived from the workload seed.

Every workload is a closed loop driven by one process: the next job starts
only after the previous one finished.  A job is one `qwalk` command line; the
benchmark chooses its ``--seed`` from the workload seed and the job's index,
so the same workload seed always gives the same jobs.

- ``jeong_deep``: ``qwalk jeong --steps 12 --gamma 0.98`` called in process.
  The deepest mesh the CLI accepts, so ``network.run`` and the beam-splitter
  routing do almost all the work; taps, filters, PBS routing and replicate
  dispatch do none.
- ``lgi``: ``qwalk lgi`` called in process, with ``--workers`` equal to the
  CPUs this process may use and at least as many replicates.  The only
  workload that uses PBS routing, removal filters, tapped runs, the K
  estimators and the process-pool replicate dispatch.
- ``cli_short``: a fixed cycle of the README's documented invocations, each
  in a fresh interpreter at a small particle count.  Interpreter start,
  ``import qwalk``, network build, the theory oracle and report writing
  dominate; the event loop does little.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

WORKLOADS = ("jeong_deep", "lgi", "cli_short")

JEONG_DEEP_PARTICLES = 5000
LGI_PARTICLES = 2000
CLI_PARTICLES = 2000

#: the CLI's own default seed; the digest-reference jobs use it
REFERENCE_SEED = 123456789

#: (job kind, qwalk arguments before --particles/--seed) of one cli_short cycle
CLI_CYCLE = (
    ("jeong4", ("jeong", "--steps", "4")),
    ("robens_minus", ("robens", "--removal", "minus", "--format", "json")),
    ("robens_taps", ("robens", "--taps", "--format", "json")),
    ("oracle5", ("oracle", "--steps", "5")),
    ("compare6", ("compare", "--network", "jeong", "--steps", "6")),
)

#: jobs per cycle; a run always ends on a whole cycle so the job mix is fixed
CYCLE_LENGTH = {"jeong_deep": 1, "lgi": 1, "cli_short": len(CLI_CYCLE)}

#: the first network each workload builds, as arguments of setup_probe.py
SETUP_NETWORK = {
    "jeong_deep": ("jeong", "12", "0.98"),
    "lgi": ("robens", "0.95"),
    "cli_short": ("jeong", "4", "0.95"),
}


@dataclass(frozen=True)
class Job:
    """One qwalk invocation; ``argv`` excludes the ``--out`` the runner adds."""

    kind: str
    argv: tuple[str, ...]
    particles: int
    fresh: bool


def cpu_count() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def lgi_shape() -> tuple[int, int]:
    """(workers, replicates) of an lgi job: one worker per CPU, replicates >= workers."""
    workers = cpu_count()
    return workers, max(2, workers)


def job_seed(workload: str, seed: int, index: int) -> int:
    """The ``--seed`` of job ``index``: a 63-bit hash of (workload, seed, index)."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def make_job(workload: str, seed: int, index: int) -> Job:
    return _job(workload, index, job_seed(workload, seed, index), lgi_shape()[1])


def reference_jobs(workload: str) -> list[Job]:
    """One cycle of the workload at the CLI's default seed, for the digest check.

    lgi uses 2 replicates whatever the CPU count, so its bytes do not depend
    on the machine (``--workers`` does not change the output).
    """
    return [_job(workload, index, REFERENCE_SEED, 2)
            for index in range(CYCLE_LENGTH[workload])]


def _job(workload: str, index: int, seed: int, replicates: int) -> Job:
    s = str(seed)
    if workload == "jeong_deep":
        p = JEONG_DEEP_PARTICLES
        return Job("jeong12", ("jeong", "--steps", "12", "--gamma", "0.98",
                               "--particles", str(p), "--seed", s), p, False)
    if workload == "lgi":
        p = LGI_PARTICLES
        # per replicate: 3 runs (three-run protocol) + 2 runs (single-run)
        return Job("lgi", ("lgi", "--workers", str(lgi_shape()[0]),
                           "--replicates", str(replicates),
                           "--particles", str(p), "--seed", s),
                   5 * replicates * p, False)
    if workload == "cli_short":
        kind, head = CLI_CYCLE[index % len(CLI_CYCLE)]
        if kind == "oracle5":
            return Job(kind, head + ("--seed", s), 0, True)
        return Job(kind, head + ("--particles", str(CLI_PARTICLES), "--seed", s),
                   CLI_PARTICLES, True)
    raise ValueError(f"unknown workload {workload!r}")
