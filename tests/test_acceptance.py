"""Acceptance gate: full-size statistical criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion uses the
package default seed via the same derivation as the command line, so the
numbers here are reproducible from the README commands.
"""
import math
import time

from qwalk.core import BeamSplitter, RngStream
from qwalk.errors import QwalkError
from qwalk.leggett_garg import SINGLE_RUN, THREE_RUN, run_protocol
from qwalk.network import RemovalFilter, build_jeong, build_robens, run
from qwalk.theory import (
    DOWN,
    StateVector,
    UP,
    hadamard_walk,
    jeong_evolve,
    srw_distribution,
    table1_closed_form,
    total_variation,
)

MASTER_SEED = 123456789
PHI1 = math.pi / 2
PHI2 = -math.pi / 2
N = 100_000
PHI2_GRID = [0.0, math.pi / 2, -math.pi / 2, math.pi, 0.3]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def frequencies(counts: dict[int, int], emitted: int) -> dict[int, float]:
    return {x: c / emitted for x, c in counts.items()}


def max_site_error(freq: dict[int, float], probs: dict[int, float]) -> float:
    return max(abs(freq.get(x, 0.0) - probs.get(x, 0.0))
               for x in set(freq) | set(probs))


def test_criterion_1_oracle_exactness():
    start = time.perf_counter()
    worst = 0.0
    for l in range(1, 6):
        for phi2 in PHI2_GRID:
            evolved = jeong_evolve(l, 0.8, phi2)[l - 1]
            closed = table1_closed_form(l, phi2)
            for x in set(evolved) | set(closed):
                worst = max(worst, abs(evolved.get(x, 0.0) - closed.get(x, 0.0)))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"evolution vs closed form: max diff {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_mesh_walk_matches_theory_to_seven_levels():
    rng = RngStream(MASTER_SEED)
    start = time.perf_counter()
    distances = {}
    for levels in range(2, 8):
        net = build_jeong(levels, PHI1, PHI2, 0.98)
        result = run(net, N, rng.derive(levels))
        freq = frequencies(result.counts, N)
        distances[levels] = total_variation(freq, jeong_evolve(levels, PHI1, PHI2)[-1])
    elapsed = time.perf_counter() - start
    worst = max(distances.values())
    report(2, worst <= 0.02 and elapsed < 30.0,
           f"TV by level {apretty(distances)}, worst {worst:.4f}, {elapsed:.1f}s")


def apretty(d: dict) -> str:
    return "{" + ", ".join(f"{k}: {v:.4f}" for k, v in d.items()) + "}"


def test_criterion_3_memoryless_limit_is_binomial():
    net = build_jeong(4, PHI1, PHI2, 0.0)
    result = run(net, N, RngStream(MASTER_SEED).derive(3))
    err = max_site_error(frequencies(result.counts, N), srw_distribution(4))
    report(3, err <= 0.01, f"gamma=0 vs binomial: max site error {err:.4f}")


def test_criterion_4_first_phase_has_no_effect():
    rng = RngStream(MASTER_SEED).derive(4)
    freqs = []
    for phi1 in (0.0, math.pi / 2):
        net = build_jeong(4, phi1, PHI2, 0.98)
        result = run(net, N, rng)
        freqs.append(frequencies(result.counts, N))
    err = max_site_error(freqs[0], freqs[1])
    report(4, err <= 0.01, f"phi1 0 vs pi/2: max site difference {err:.4f}")


def test_criterion_5_negative_measurement_panels():
    rng = RngStream(MASTER_SEED).derive(5)
    net = build_robens(0.95)
    kept_minus = run(net, N, rng.derive(0), filters=[RemovalFilter("t2", +1)])
    kept_plus = run(net, N, rng.derive(1), filters=[RemovalFilter("t2", -1)])
    freq_minus = frequencies(kept_minus.counts, N)
    freq_plus = frequencies(kept_plus.counts, N)
    _, oracle_minus = hadamard_walk(3, StateVector.basis(-1, UP, 1 / math.sqrt(2)))
    _, oracle_plus = hadamard_walk(3, StateVector.basis(+1, DOWN, 1 / math.sqrt(2)))
    err_minus = max_site_error(freq_minus, oracle_minus)
    err_plus = max_site_error(freq_plus, oracle_plus)
    total = {x: freq_minus.get(x, 0.0) + freq_plus.get(x, 0.0)
             for x in set(freq_minus) | set(freq_plus)}
    symmetric = jeong_evolve(4, PHI1, PHI2)[-1]
    err_sum = max_site_error(total, symmetric)
    report(5, err_minus <= 0.01 and err_plus <= 0.01 and err_sum <= 0.01,
           f"branch errors {err_minus:.4f}/{err_plus:.4f}, "
           f"sum vs symmetric walk {err_sum:.4f}")


def test_criterion_6_taps_are_non_invasive_and_partition():
    net = build_robens(0.95)
    rng_seed = RngStream(MASTER_SEED).derive(6).seed
    silent = run(net, N, RngStream(rng_seed), taps_enabled=False)
    tapped = run(net, N, RngStream(rng_seed), taps_enabled=True)
    identical = (repr(sorted(silent.counts.items()))
                 == repr(sorted(tapped.counts.items()))
                 and silent.removed == tapped.removed)
    partition = tapped.t2
    resum = {x: partition[-1].get(x, 0) + partition[1].get(x, 0)
             for x in tapped.counts}
    exact = all(resum.get(x, 0) == c for x, c in tapped.counts.items())
    report(6, identical and exact,
           f"tap on/off tables identical: {identical}, partition resums: {exact}")


def test_criterion_7_three_run_protocol_violates():
    start = time.perf_counter()
    aggregate, _ = run_protocol(THREE_RUN, particles=N, gamma=0.95,
                                replicates=10, rng=RngStream(MASTER_SEED).derive(0))
    elapsed = time.perf_counter() - start
    sigmas = (aggregate.k - 1.0) / aggregate.stderr
    halves = (abs(aggregate.components.p_plus - 0.5) <= 0.01
              and abs(aggregate.components.p_minus - 0.5) <= 0.01)
    ok = (1.45 <= aggregate.k <= 1.50 and aggregate.stderr <= 0.02
          and sigmas > 10 and halves and elapsed < 120.0)
    report(7, ok, f"K = {aggregate.k:.4f} +- {aggregate.stderr:.4f} "
                  f"({sigmas:.0f} stderr above 1), branch fractions "
                  f"{aggregate.components.p_minus:.3f}/{aggregate.components.p_plus:.3f}, "
                  f"{elapsed:.0f}s")


def test_criterion_8_single_run_protocol_does_not_violate():
    aggregate, _ = run_protocol(SINGLE_RUN, particles=N, gamma=0.95,
                                replicates=10, rng=RngStream(MASTER_SEED).derive(1))
    ok = (abs(aggregate.k - 1.0) <= 3 * aggregate.stderr
          and aggregate.stderr <= 0.01)
    report(8, ok, f"K = {aggregate.k:.4f} +- {aggregate.stderr:.4f}, "
                  f"|K-1| = {abs(aggregate.k - 1.0):.4f}")


def test_criterion_9_conservation_and_determinism():
    rng = RngStream(MASTER_SEED).derive(9)
    checks = []

    jeong = build_jeong(5, PHI1, PHI2, 0.95)
    res = run(jeong, 20_000, rng.derive(0))
    checks.append(sum(res.counts.values()) + res.removed == 20_000)

    robens = build_robens(0.95)
    for i, filters in enumerate(([], [RemovalFilter("t2", +1)],
                                 [RemovalFilter("t2", -1)])):
        res = run(robens, 20_000, rng.derive(1 + i), filters=filters,
                  taps_enabled=True)
        checks.append(sum(res.counts.values()) + res.removed == 20_000)
        checks.append(sum(sum(row.values()) for row in res.t2.values())
                      == sum(res.counts.values()))
        for unit in [u for u in robens.units if isinstance(u, BeamSplitter)]:
            checks.append(abs(unit.state.w0 + unit.state.w1 - 1.0) <= 1e-12)

    a = run(robens, 20_000, rng.derive(4), taps_enabled=True)
    b = run(robens, 20_000, rng.derive(4), taps_enabled=True)
    checks.append(a.counts == b.counts and a.t2 == b.t2
                  and a.removed == b.removed)
    report(9, all(checks),
           f"{len(checks)} conservation/normalization/determinism checks")


def test_criterion_10_memoryless_protocol_respects_bound():
    # exhaustive classical oracle: all 16 equally weighted coin sequences
    q3_total = 0.0
    branch_sum = {-1: 0, 1: 0}
    branch_n = {-1: 0, 1: 0}
    for bits in range(16):
        coins = [1 if bits & (1 << i) else -1 for i in range(4)]
        x = sum(coins)
        q3 = 1 if x > 0 else -1
        q3_total += q3 / 16
        branch_sum[coins[0]] += q3
        branch_n[coins[0]] += 1
    q3q2 = sum((branch_n[b] / 16) * (branch_sum[b] / branch_n[b]) for b in (-1, 1))
    k_classical = 1 + q3q2 - q3_total
    assert k_classical == 1.0

    aggregate, _ = run_protocol(THREE_RUN, particles=N, gamma=0.0,
                                replicates=10, rng=RngStream(MASTER_SEED).derive(10))
    ok = aggregate.k <= 1.0 + 3 * aggregate.stderr
    report(10, ok, f"gamma=0 K = {aggregate.k:.4f} +- {aggregate.stderr:.4f} "
                   f"(classical enumeration gives exactly 1)")
