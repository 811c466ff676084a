"""Leggett-Garg correlation analysis for the four-jump polarized walk.

The dichotomic observable is Q = +1 if the particle sits at x > 0 and -1
otherwise, read at the cut points t1 (preparation), t2 (after the first
jump) and t3 (at the detectors).  With Q(t1) = Q(t2) = 1 the bound reads

    K = 1 + <Q(t3)Q(t2)> - <Q(t3)>  <=  1.

Two estimation protocols are implemented:

* three-run: one unconditioned run estimates <Q(t3)>; two further runs each
  perform an ideal negative measurement at t2 (absorbing the x=+1 or x=-1
  rail) and estimate <Q(t3)>_{x2} over the surviving branch, combined with
  the branch probabilities P(x2; t2).  Removing half the ensemble changes
  how the downstream registers adapt, so this procedure violates the bound.
* single-run: one run only *observes* the t2 position of every particle
  (taps copy data and perturb nothing), so <Q(t3)Q(t2)> and the branch terms
  come from one dataset; <Q(t3)> comes from a separate unconditioned run.
  K stays at 1 up to statistical fluctuations.

Replicate helpers seed each replicate independently and run the replicates
on a pool of threads; error bars are standard errors over replicates.
"""
from __future__ import annotations

import os
from typing import NamedTuple

from .core import RngStream
from .errors import EmptyRun, InsufficientReplicates
from .network import RemovalFilter, _compiled, build_robens, run
from .theory import StateVector, UP, hadamard_walk

THREE_RUN = "three_run"
SINGLE_RUN = "single_run"


class LgiComponents(NamedTuple):
    q3_mean: float
    q3q2_mean: float
    p_plus: float
    p_minus: float


class LgiResult(NamedTuple):
    k: float
    stderr: float
    protocol: str
    components: LgiComponents
    replicates: int


def q3_of_site(x: int) -> int:
    """Dichotomic readout at t3: +1 for x > 0, -1 otherwise (including x = 0)."""
    return 1 if x > 0 else -1


def _q3_stats(dist: dict[int, float]) -> tuple[float, float]:
    """(sum of q3 over the weights, total weight): counts or probabilities."""
    total = 0
    acc = 0
    for site, count in dist.items():
        total += count
        acc += q3_of_site(site) * count
    return acc, total


def k_three_run(unconditioned: dict[int, int],
                kept_minus: dict[int, int],
                kept_plus: dict[int, int],
                removed_minus: int,
                removed_plus: int) -> LgiResult:
    """K from the invasive three-run procedure.

    ``kept_minus`` comes from the run whose filter absorbed the x=+1 rail at
    t2 (so the x2=-1 branch survived) and ``removed_minus`` is that same
    run's removed tally; ``kept_plus``/``removed_plus`` likewise for the
    x2=+1 branch.  The branch probabilities are pooled over both filtered
    runs, P(-1) = (kept_minus + removed_plus) / (N_minus + N_plus), so that
    P(+1) + P(-1) = 1 exactly.
    """
    s_u, n_u = _q3_stats(unconditioned)
    s_m, n_m = _q3_stats(kept_minus)
    s_p, n_p = _q3_stats(kept_plus)
    if n_u == 0 or n_m == 0 or n_p == 0:
        raise EmptyRun("three-run estimator needs counts in all three runs")
    q3_mean = s_u / n_u
    q3_minus = s_m / n_m
    q3_plus = s_p / n_p
    pooled = n_m + removed_minus + n_p + removed_plus
    p_minus = (n_m + removed_plus) / pooled
    p_plus = (n_p + removed_minus) / pooled
    q3q2_mean = p_minus * q3_minus + p_plus * q3_plus
    k = 1.0 + q3q2_mean - q3_mean
    return LgiResult(k, 0.0, THREE_RUN,
                     LgiComponents(q3_mean, q3q2_mean, p_plus, p_minus), 1)


def k_single_run(t2_table: dict[int, dict[int, int]],
                 unconditioned: dict[int, int]) -> LgiResult:
    """K from one tapped run's t2 table plus a separate unconditioned run for <Q(t3)>.

    ``t2_table[x2][x]`` counts the tapped particles that crossed t2 at x2 and
    were detected at x.  <Q(t3)Q(t2)> = sum over x2 of P(x2) <Q(t3)>_{x2}
    with Q(t2) = 1; computed from integer tallies, which makes it identical
    to the plain <Q(t3)> of the tapped dataset, so feeding the tapped run's
    own distribution as ``unconditioned`` yields K = 1 exactly.
    """
    s_minus, n_minus = _q3_stats(t2_table.get(-1, {}))
    s_plus, n_plus = _q3_stats(t2_table.get(+1, {}))
    n = n_minus + n_plus
    if n == 0:
        raise EmptyRun("t2 table has no counts")
    s_u, n_u = _q3_stats(unconditioned)
    if n_u == 0:
        raise EmptyRun("unconditioned run has no counts")
    q3q2_mean = (s_minus + s_plus) / n
    q3_mean = s_u / n_u
    k = 1.0 + q3q2_mean - q3_mean
    return LgiResult(k, 0.0, SINGLE_RUN,
                     LgiComponents(q3_mean, q3q2_mean, n_plus / n, n_minus / n), 1)


def t3_probabilities(kept: int | None = None) -> dict[int, float]:
    """The exact detector distribution of the four-jump walk from (0, up).

    With ``kept`` = -1 or +1, the negative measurement at t2 keeps only the
    branch x2 = ``kept``: the walk's state after its first jump loses every
    other site before its last 3 jumps, so the probabilities sum to P(x2).
    """
    state, _ = hadamard_walk(1, StateVector.basis(0, UP))
    if kept is not None:
        state = StateVector({key: a for key, a in state.amplitudes.items()
                             if key[0] == kept})
    return hadamard_walk(3, state)[1]


def k_quantum() -> float:
    """The exact quantum K of the four-jump walk, from the state vectors.

    K = 1 + sum over x2 of P(x2) <Q(t3)>_{x2} - <Q(t3)>, each term the q3
    sum of a ``t3_probabilities`` distribution.  The three-run protocol
    estimates this K; it exceeds the bound: 1 + (-3/4 + 1/2)/2 + 5/8 = 3/2.
    """
    minus, plus, whole = (_q3_stats(t3_probabilities(kept))[0]
                          for kept in (-1, +1, None))
    return 1.0 + minus + plus - whole


def replicate_stats(values: list[float]) -> tuple[float, float]:
    """Sample mean and standard error of the mean over replicate values."""
    import statistics  # with fractions and decimal: only lgi reads it

    if len(values) < 2:
        raise InsufficientReplicates(
            f"need at least 2 replicates, got {len(values)}")
    mean = statistics.fmean(values)
    stderr = statistics.stdev(values) / len(values) ** 0.5
    return mean, stderr


def three_run_replicate(particles: int, gamma: float, rng: RngStream) -> LgiResult:
    """One replicate of the invasive protocol: 3 independent runs."""
    net = _compiled(build_robens, gamma)
    uncond = run(net, particles, rng.derive(0))
    kept_minus = run(net, particles, rng.derive(1),
                     filters=[RemovalFilter("t2", +1)])
    kept_plus = run(net, particles, rng.derive(2),
                    filters=[RemovalFilter("t2", -1)])
    return k_three_run(uncond.counts, kept_minus.counts, kept_plus.counts,
                       kept_minus.removed, kept_plus.removed)


def single_run_replicate(particles: int, gamma: float, rng: RngStream) -> LgiResult:
    """One replicate of the non-invasive protocol: tapped run + reference run."""
    net = _compiled(build_robens, gamma)
    tapped = run(net, particles, rng.derive(0), taps_enabled=True)
    uncond = run(net, particles, rng.derive(1))
    return k_single_run(tapped.t2, uncond.counts)


def _replicate_worker(args: tuple[str, int, int, float]) -> LgiResult:
    protocol, seed, particles, gamma = args
    rng = RngStream(seed)
    try:
        if protocol == THREE_RUN:
            return three_run_replicate(particles, gamma, rng)
        return single_run_replicate(particles, gamma, rng)
    except EmptyRun as exc:
        raise EmptyRun(f"{protocol}: {exc}") from None


def _aggregate(protocol: str,
               results: list[LgiResult]) -> tuple[LgiResult, list[LgiResult]]:
    import statistics

    _mean_k, stderr = replicate_stats([r.k for r in results])
    comps = LgiComponents(
        statistics.fmean(r.components.q3_mean for r in results),
        statistics.fmean(r.components.q3q2_mean for r in results),
        statistics.fmean(r.components.p_plus for r in results),
        statistics.fmean(r.components.p_minus for r in results),
    )
    aggregate = LgiResult(1.0 + comps.q3q2_mean - comps.q3_mean, stderr,
                          protocol, comps, len(results))
    return aggregate, results


def run_protocols(protocols: list[tuple[str, RngStream]], *, particles: int = 100_000,
                  gamma: float = 0.95, replicates: int = 10,
                  workers: int | None = None) -> list[tuple[LgiResult, list[LgiResult]]]:
    """``run_protocol`` for several (protocol, stream) pairs, as one job.

    Every replicate of every protocol runs on one pool of
    ``min(workers, usable CPUs, len(protocols) * replicates)`` threads,
    where the usable CPUs are those this process may run on and
    ``workers`` defaults to them.  Threads run in parallel because the
    compiled kernel releases the GIL; the Python loop, used without a C
    compiler, holds it, so there more workers buy nothing.  Each
    replicate's stream depends only on its protocol's stream and index, so
    the results do not depend on the number of threads.  Fewer than 2
    replicates raise ``InsufficientReplicates`` before any replicate runs.
    An ``EmptyRun`` message starts with the protocol whose replicate had no
    counts.
    """
    from concurrent.futures import ThreadPoolExecutor

    for protocol, _rng in protocols:
        if protocol not in (THREE_RUN, SINGLE_RUN):
            raise ValueError(f"unknown protocol {protocol!r}")
    if replicates < 2:
        raise InsufficientReplicates(
            f"need at least 2 replicates, got {replicates}")
    jobs = [(protocol, rng.derive(r).seed, particles, gamma)
            for protocol, rng in protocols for r in range(replicates)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # threads beyond the usable CPUs buy nothing, and beyond the
    # replicates they would run nothing; no protocols, or workers < 1,
    # still get the one thread a pool needs
    workers = min(cpus if workers is None else workers, cpus, len(jobs))
    with ThreadPoolExecutor(max(workers, 1)) as pool:
        results = list(pool.map(_replicate_worker, jobs))
    return [_aggregate(protocol, results[i * replicates:(i + 1) * replicates])
            for i, (protocol, _rng) in enumerate(protocols)]


def run_protocol(protocol: str, *, particles: int = 100_000, gamma: float = 0.95,
                 replicates: int = 10, rng: RngStream,
                 workers: int | None = None) -> tuple[LgiResult, list[LgiResult]]:
    """Run ``replicates`` independent replicates and aggregate them.

    Returns (aggregate, per-replicate results).  The aggregate K is computed
    from the averaged components so K = 1 + <Q3Q2> - <Q3> holds exactly;
    stderr is the standard error over the per-replicate K values.  Each
    replicate runs the network 3 times (three-run) or twice (single-run);
    a process builds and compiles the network of one gamma once
    (``network._compiled``) for all its replicates, and every run starts
    from fresh registers and streams.  Dispatch follows ``run_protocols``:
    the replicates run on ``min(workers, usable CPUs, replicates)`` threads
    (``workers`` defaults to the CPUs this process may run on).
    """
    [result] = run_protocols([(protocol, rng)], particles=particles, gamma=gamma,
                             replicates=replicates, workers=workers)
    return result
