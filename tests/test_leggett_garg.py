"""Correlation estimators for both measurement protocols."""
import itertools
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from qwalk.core import RngStream
from qwalk.errors import EmptyRun, InsufficientReplicates
from qwalk.leggett_garg import (
    SINGLE_RUN,
    T2_BRANCHES,
    THREE_RUN,
    LgiComponents,
    LgiResult,
    _exact_q3,
    k_quantum,
    k_single_run,
    k_three_run,
    q3_of_site,
    replicate_stats,
    run_protocol,
    single_run_replicate,
    three_run_replicate,
)
from qwalk.network import build_jeong, run
from qwalk.theory import StateVector, UP, hadamard_walk


# --- readout ------------------------------------------------------------------

@pytest.mark.parametrize("site,expected", [(2, 1), (4, 1), (-4, -1), (-2, -1), (0, -1)])
def test_q3_sign_convention(site, expected):
    assert q3_of_site(site) == expected


# --- replicate statistics ------------------------------------------------------

def test_replicate_stats_examples():
    assert replicate_stats([1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, stderr = replicate_stats([1.4, 1.6])
    assert mean == pytest.approx(1.5)
    assert stderr == pytest.approx(0.1)

def test_replicate_stats_needs_two_values():
    with pytest.raises(InsufficientReplicates):
        replicate_stats([1.0])


# --- three-run estimator ---------------------------------------------------------

def test_three_run_matches_exact_fraction_arithmetic():
    uncond = {-4: 10, -2: 50, 0: 15, 2: 20, 4: 5}
    kept_minus = {-4: 8, -2: 25, 0: 6, 2: 9}
    kept_plus = {-2: 5, 0: 7, 2: 30, 4: 10}
    removed_minus, removed_plus = 52, 48
    result = k_three_run(uncond, kept_minus, kept_plus,
                         removed_minus, removed_plus)

    def q3_mean_exact(dist):
        total = sum(dist.values())
        return Fraction(sum((1 if x > 0 else -1) * c for x, c in dist.items()),
                        total)

    n_m, n_p = sum(kept_minus.values()), sum(kept_plus.values())
    pooled = n_m + removed_minus + n_p + removed_plus
    p_minus = Fraction(n_m + removed_plus, pooled)
    p_plus = Fraction(n_p + removed_minus, pooled)
    expected = (1 + p_minus * q3_mean_exact(kept_minus)
                + p_plus * q3_mean_exact(kept_plus) - q3_mean_exact(uncond))
    assert result.k == pytest.approx(float(expected), abs=1e-14)
    assert result.components.p_plus + result.components.p_minus == pytest.approx(1.0, abs=1e-12)
    assert result.k == 1.0 + result.components.q3q2_mean - result.components.q3_mean

def test_three_run_rejects_empty_distributions():
    good = {0: 5}
    with pytest.raises(EmptyRun):
        k_three_run({}, good, good, 1, 1)
    with pytest.raises(EmptyRun):
        k_three_run(good, {}, good, 1, 1)


# --- single-run estimator ---------------------------------------------------------

def test_same_dataset_gives_k_of_exactly_one():
    # law of total expectation: partitioning by the t2 observation and
    # recombining reproduces the plain mean, so K == 1 bit-exactly
    t2 = {-1: {-4: 0, -2: 3, 0: 1, 2: 3, 4: 1},
          +1: {-4: 2, -2: 1, 0: 1, 2: 0, 4: 0}}
    counts = {x: t2[-1][x] + t2[1][x] for x in t2[-1]}
    result = k_single_run(t2, counts)
    assert result.k == 1.0

def test_single_run_partition_fractions():
    t2 = {-1: {-4: 0, -2: 1, 0: 1, 2: 0, 4: 0},
          +1: {-4: 0, -2: 0, 0: 0, 2: 1, 4: 1}}
    result = k_single_run(t2, {-2: 1, 0: 1, 2: 1, 4: 1})
    assert result.components.p_minus == 0.5
    assert result.components.p_plus == 0.5
    assert result.components.q3q2_mean == 0.0
    assert result.components.q3_mean == 0.0
    assert result.k == 1.0

def test_single_run_requires_taps():
    # only a network with a t2 cut point can be tapped for the t2 table
    with pytest.raises(ValueError):
        run(build_jeong(2, 0.0, 0.0), 10, RngStream(1), taps_enabled=True)

def test_single_run_rejects_empty_inputs():
    with pytest.raises(EmptyRun):
        k_single_run({}, {0: 1})
    with pytest.raises(EmptyRun):
        k_single_run({-1: {0: 1}, +1: {0: 0}}, {})


# --- classical enumeration oracle -------------------------------------------------

def classical_three_run_k() -> Fraction:
    """Exact K for the memoryless walk via all 16 four-coin trajectories.

    Every coin sequence has weight 1/16; the first coin fixes the t2 position
    and removal does not change the statistics of the surviving branch.
    """
    weight = Fraction(1, 16)
    q3_total = Fraction(0)
    branch: dict[int, Fraction] = {-1: Fraction(0), 1: Fraction(0)}
    branch_weight: dict[int, Fraction] = {-1: Fraction(0), 1: Fraction(0)}
    for coins in itertools.product((-1, 1), repeat=4):
        x = sum(coins)
        q3 = 1 if x > 0 else -1
        q3_total += weight * q3
        branch[coins[0]] += weight * q3
        branch_weight[coins[0]] += weight
    q3q2 = sum(branch_weight[x2] * (branch[x2] / branch_weight[x2])
               for x2 in (-1, 1))
    return 1 + q3q2 - q3_total

def test_classical_walk_saturates_but_never_violates():
    assert classical_three_run_k() == 1


# --- exact quantum K -----------------------------------------------------------------

def test_t2_branches_are_the_first_step_of_the_walk():
    state, _ = hadamard_walk(1, StateVector.basis(0, UP))
    branches = {**T2_BRANCHES[-1].amplitudes, **T2_BRANCHES[+1].amplitudes}
    assert state.amplitudes == pytest.approx(branches, abs=1e-15)

def test_exact_quantum_k_is_three_halves():
    # P(x2 = +-1) = 1/2; <Q3> = -0.625, and -0.75 and +0.5 on the branches
    assert _exact_q3(StateVector.basis(0, UP), 4) == pytest.approx((1.0, -0.625),
                                                                  abs=1e-12)
    assert _exact_q3(T2_BRANCHES[-1], 3) == pytest.approx((0.5, -0.75), abs=1e-12)
    assert _exact_q3(T2_BRANCHES[+1], 3) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert k_quantum() == pytest.approx(1.5, abs=1e-12)


# --- protocol drivers (small sizes; full sizes run in the acceptance suite) ----

def test_three_run_replicate_components_are_sane():
    result = three_run_replicate(4000, 0.95, RngStream(2))
    assert result.protocol == THREE_RUN
    assert abs(result.components.q3_mean) <= 1.0
    assert abs(result.components.q3q2_mean) <= 1.0
    assert result.components.p_plus + result.components.p_minus == pytest.approx(1.0, abs=1e-12)
    assert result.k == 1.0 + result.components.q3q2_mean - result.components.q3_mean
    assert result.k > 1.1  # interference already visible at 4k particles

def test_single_run_replicate_stays_near_one():
    result = single_run_replicate(4000, 0.95, RngStream(3))
    assert result.protocol == SINGLE_RUN
    assert abs(result.k - 1.0) < 0.1

def test_run_protocol_aggregates_and_is_deterministic():
    agg_a, reps_a = run_protocol(THREE_RUN, particles=1500, gamma=0.9,
                                 replicates=3, rng=RngStream(10), workers=1)
    agg_b, reps_b = run_protocol(THREE_RUN, particles=1500, gamma=0.9,
                                 replicates=3, rng=RngStream(10), workers=1)
    assert agg_a == agg_b
    assert [r.k for r in reps_a] == [r.k for r in reps_b]
    assert agg_a.replicates == 3
    assert agg_a.stderr > 0.0
    assert agg_a.k == 1.0 + agg_a.components.q3q2_mean - agg_a.components.q3_mean

def test_run_protocol_parallel_matches_serial(monkeypatch):
    # real threads, switching as often as the interpreter allows
    import qwalk.leggett_garg as lg

    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial, _ = run_protocol(SINGLE_RUN, particles=1200, gamma=0.9,
                                 replicates=2, rng=RngStream(4), workers=1)
        parallel, _ = run_protocol(SINGLE_RUN, particles=1200, gamma=0.9,
                                   replicates=2, rng=RngStream(4), workers=2)
    finally:
        sys.setswitchinterval(switch)
    assert pools == [1, 2]
    assert serial == parallel

class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the pool size, starts no thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)

def fixed_replicate(job):
    """Stands in for a replicate: a constant result, no run."""
    return LgiResult(1.0, 0.0, job[0], LgiComponents(0.0, 0.0, 0.5, 0.5), 1)

@pytest.mark.parametrize("workers,pools", [(5000, [3]), (2, [2]), (None, [3]), (1, [1])])
def test_run_protocol_pool_never_exceeds_replicates(monkeypatch, workers, pools):
    import qwalk.leggett_garg as lg

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    run_protocol(THREE_RUN, particles=20, gamma=0.9, replicates=3,
                 rng=RngStream(5), workers=workers)
    assert RecordingExecutor.sizes == pools

def test_pool_never_exceeds_usable_cpus(monkeypatch):
    # threads beyond the CPUs this process may run on buy nothing
    import qwalk.leggett_garg as lg

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lg, "_replicate_worker", fixed_replicate)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    both = [(THREE_RUN, RngStream(1)), (SINGLE_RUN, RngStream(2))]
    lg.run_protocols(both, particles=20, replicates=8, workers=5000)
    assert RecordingExecutor.sizes == [4]

@pytest.mark.parametrize("workers,pools", [("5000", [4]), ("3", [3]), (None, [4]),
                                           ("1", [1])])
def test_lgi_job_starts_one_pool(monkeypatch, capsys, workers, pools):
    # both protocols' replicates share one pool, sized by their total count,
    # and the report does not depend on the dispatch
    import qwalk.leggett_garg as lg
    from qwalk.cli import main

    argv = ["lgi", "--particles", "300", "--replicates", "2"]
    assert main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    assert main(argv + ([] if workers is None else ["--workers", workers])) == 0
    assert RecordingExecutor.sizes == pools
    assert capsys.readouterr().out == serial

@pytest.mark.parametrize("usable,pools", [({0}, [1]), ({0, 1}, [2])])
def test_default_pool_follows_cpu_affinity(monkeypatch, usable, pools):
    # the default pool counts the CPUs this process may run on, not the
    # CPUs the machine has
    import qwalk.leggett_garg as lg

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: usable,
                        raising=False)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    run_protocol(THREE_RUN, particles=20, gamma=0.9, replicates=4,
                 rng=RngStream(5))
    assert RecordingExecutor.sizes == pools

def test_benchmark_sized_job_takes_a_pool(monkeypatch):
    # a small job runs on as many threads as a large one: the benchmark's
    # lgi job (2000 particles, 2 replicates per protocol) on 2 workers, and
    # the default lgi job on every usable CPU up to its 20 replicates
    import qwalk.leggett_garg as lg

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lg, "_replicate_worker", fixed_replicate)
    monkeypatch.setattr(lg.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(lg.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    both = [(THREE_RUN, RngStream(1)), (SINGLE_RUN, RngStream(2))]
    lg.run_protocols(both, particles=2000, replicates=2, workers=2)
    assert RecordingExecutor.sizes == [2]
    lg.run_protocols(both)
    assert RecordingExecutor.sizes == [2, 20]

def test_import_starts_no_pool_machinery():
    # the thread pool is imported when an lgi job starts, not with qwalk
    code = ("import sys, qwalk, qwalk.cli; "
            "sys.exit(any(m.split('.')[0] in ('concurrent', 'multiprocessing') "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0

def test_single_replicate_is_rejected_before_any_runs(monkeypatch):
    import qwalk.leggett_garg as lg

    calls = []

    def counting(particles, gamma, rng):
        calls.append(rng.seed)
        return three_run_replicate(particles, gamma, rng)

    monkeypatch.setattr(lg, "three_run_replicate", counting)
    with pytest.raises(InsufficientReplicates):
        run_protocol(THREE_RUN, particles=3000, replicates=1, rng=RngStream(1),
                     workers=1)
    assert calls == []
    run_protocol(THREE_RUN, particles=3000, replicates=2, rng=RngStream(1),
                 workers=1)
    assert len(calls) == 2

def test_run_protocol_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        run_protocol("both", particles=10, replicates=2, rng=RngStream(1))
