"""Per-layer metrics of the traced run: layer probes and the arithmetic on job spans.

The probes are the same on every workload:

- core microbenchmarks on a fixed, seeded arrival sequence;
- the theory oracles at the sizes the workloads use;
- a tapped and an untapped Robens run of the same seed and size, and the
  tracemalloc peak of the tapped one;
- the replicates of one lgi job run serially, traced, and then dispatched
  through ``run_protocol`` as the CLI does.  lgi replicates run in worker
  processes whose spans are lost, so this serial split is what shows their
  build/run/estimator time and the dispatch efficiency.
"""
from __future__ import annotations

import math
import random
import statistics
import time
import tracemalloc

from qwalk import core, leggett_garg, network, theory

import tracing
from workloads import LGI_PARTICLES, REFERENCE_SEED, job_seed, lgi_shape

ARRIVALS = 20_000
SEEDS_DERIVED = 5_000
REPEATS = 5
TAPS_PARTICLES = 5_000
LGI_GAMMA = 0.95  # the CLI default that lgi jobs run with


def _per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` of fn()'s wall time divided by ``calls``, in ns."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def core_probe() -> dict[str, float]:
    rnd = random.Random(REFERENCE_SEED)
    arrivals = []
    for _ in range(ARRIVALS):
        h = complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
        v = complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
        n = math.sqrt(abs(h) ** 2 + abs(v) ** 2)
        arrivals.append((rnd.getrandbits(1), core.Message(h / n, v / n), rnd.random()))

    update, bs_route, pbs_route = core.adaptive_update, core.bs_route, core.pbs_route
    state = core.AdaptiveState(0.95)

    def updates():
        for port, m, _u in arrivals:
            update(state, port, m)

    def bs():
        for port, m, u in arrivals:
            bs_route(state, port, m, u)

    def pbs():
        for port, m, u in arrivals:
            pbs_route(state, port, m, u)

    def derive():
        for i in range(SEEDS_DERIVED):
            core.derive_seed(REFERENCE_SEED, i)

    adaptive_ns = _per_call(updates, ARRIVALS)
    # routing reads the registers the arrivals above left behind
    return {
        "core.adaptive_update_ns": adaptive_ns,
        "core.bs_route_ns": _per_call(bs, ARRIVALS),
        "core.pbs_route_ns": _per_call(pbs, ARRIVALS),
        "core.derive_seed_us": _per_call(derive, SEEDS_DERIVED) / 1e3,
    }


def theory_probe() -> dict[str, float]:
    start = theory.StateVector.basis(0, theory.UP)
    return {
        "theory.jeong_evolve_ms": _per_call(
            lambda: theory.jeong_evolve(12, math.pi / 2, -math.pi / 2), 1, 9) / 1e6,
        "theory.hadamard_walk_ms": _per_call(
            lambda: [theory.hadamard_walk(4, start) for _ in range(50)], 50, 9) / 1e6,
    }


def taps_probe() -> dict[str, float]:
    net = network.build_robens(LGI_GAMMA)
    rng = core.RngStream(REFERENCE_SEED)
    plain, tapped = [], []
    for _ in range(3):
        for taps, samples in ((False, plain), (True, tapped)):
            t0 = time.perf_counter()
            network.run(net, TAPS_PARTICLES, rng, taps_enabled=taps)
            samples.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        network.run(net, TAPS_PARTICLES, rng, taps_enabled=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "network.taps_overhead_ratio":
            statistics.median(tapped) / statistics.median(plain) - 1.0,
        "network.records_peak_mib": peak / 2 ** 20,
    }


def lgi_split(tracer: tracing.Tracer, seed: int) -> list[str]:
    """Run the first lgi job's replicates serially, then dispatched; both traced.

    Returns problems: the dispatched replicates must give the serial K values.
    """
    workers, replicates = lgi_shape()
    rng = core.RngStream(job_seed("lgi", seed, 0))
    protocols = ((leggett_garg.THREE_RUN, "three_run_replicate"),
                 (leggett_garg.SINGLE_RUN, "single_run_replicate"))
    problems = []
    for index, (protocol, replicate_fn) in enumerate(protocols):
        prng = rng.derive(index)
        tracer.job = "lgi_split"
        serial = [getattr(leggett_garg, replicate_fn)(
                      LGI_PARTICLES, LGI_GAMMA, core.RngStream(prng.derive(r).seed))
                  for r in range(replicates)]
        tracer.job = "lgi_dispatch"
        _aggregate, dispatched = leggett_garg.run_protocol(
            protocol, particles=LGI_PARTICLES, gamma=LGI_GAMMA,
            replicates=replicates, rng=prng, workers=workers)
        if [r.k for r in serial] != [r.k for r in dispatched]:
            problems.append(f"{protocol}: dispatched replicates differ from serial")
    tracer.job = None
    return problems


def lgi_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    workers, _ = lgi_shape()

    def durations(name, job):
        return [s.duration for s in spans if s.name == name and s.job == job]

    three_run = durations("leggett_garg.three_run_replicate", "lgi_split")
    single_run = durations("leggett_garg.single_run_replicate", "lgi_split")
    protocol_ns = sum(durations("leggett_garg.run_protocol", "lgi_dispatch"))
    return {
        "leggett_garg.three_run_replicate_s": statistics.median(three_run) / 1e9,
        "leggett_garg.single_run_replicate_s": statistics.median(single_run) / 1e9,
        "leggett_garg.run_protocol_s": protocol_ns / 1e9,
        "leggett_garg.dispatch_efficiency":
            sum(three_run + single_run) / (workers * protocol_ns),
        "leggett_garg.k_single_run_ms": statistics.median(
            durations("leggett_garg.k_single_run", "lgi_split")) / 1e6,
        "leggett_garg.k_three_run_us": statistics.median(
            durations("leggett_garg.k_three_run", "lgi_split")) / 1e3,
    }


def network_metrics(spans: list[tracing.Span], cycles: list[set[str]]) -> dict[str, float]:
    """network.* from the build and run spans of the given cycles of jobs.

    Counts (calls, hops, units) are those of the first cycle, so they repeat
    exactly for a given workload seed; times and rates use every cycle.
    """
    def of(job_ids, name_prefix):
        return [s for s in spans if s.job in job_ids and s.name.startswith(name_prefix)]

    builds = of(set().union(*cycles), "network.build_")
    runs_per_cycle = [of(c, "network.run") for c in cycles]
    runs = [s for c in runs_per_cycle for s in c]
    run_ns = sum(s.duration for s in runs)
    hops = sum(s.attrs["hops"] for s in runs)
    particles = sum(s.attrs["particles"] for s in runs)
    first = runs_per_cycle[0]
    return {
        "network.build_ms": statistics.median(s.duration for s in builds) / 1e6,
        "network.build_units": statistics.median_low(s.attrs["units"] for s in builds),
        "network.run_s": statistics.median(
            sum(s.duration for s in c) for c in runs_per_cycle) / 1e9,
        "network.run_calls": len(first),
        "network.run_hops": sum(s.attrs["hops"] for s in first),
        "network.run_ns_per_hop": run_ns / hops,
        "network.run_particles_per_s": particles / (run_ns / 1e9),
        "network.run_removed_ratio":
            sum(s.attrs["removed"] for s in runs) / particles,
    }


def job_metrics(spans: list[tracing.Span], job_ids: set[str]) -> dict[str, float]:
    """cli.self_ms and trace.coverage from the root span of each traced job."""
    kids = tracing.children_of(spans)
    roots = [s for s in spans if s.name == "job" and s.job in job_ids]
    return {
        "cli.self_ms": statistics.median(
            tracing.self_time(s, kids) for s in roots) / 1e6,
        "trace.coverage": statistics.median(
            1 - tracing.self_time(s, kids) / s.duration for s in roots),
    }
