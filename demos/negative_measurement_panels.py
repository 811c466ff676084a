"""Removing versus merely observing particles at the first-jump checkpoint.

The four-jump polarized network carries a checkpoint (t2) right after the
first jump, where every particle sits at x = -1 or x = +1.  Two ways to use
it:

* ideal negative measurement: absorb one rail, keep the other.  The
  surviving branch reproduces the wave evolution of the matching conditioned
  state, and the two branches summed give a symmetric profile that differs
  from the untouched walk.
* non-invasive observation: record where each particle was and touch
  nothing.  The tagged sub-ensembles re-sum exactly to the untouched walk,
  bit for bit.

Both facts print below; together they are the distribution-level face of the
three-run versus single-run discrepancy in the correlation analysis.

Run:  python demos/negative_measurement_panels.py
"""
import math

from qwalk import (
    DOWN,
    RemovalFilter,
    RngStream,
    StateVector,
    UP,
    build_robens,
    hadamard_walk,
    run,
)

PARTICLES = 100_000
SEED = 123456789
SITES = [-4, -2, 0, 2, 4]


def show(title: str, freq: dict, reference: dict | None) -> None:
    print(f"\n{title}")
    header = f"{'site':>5} {'simulated':>10}"
    print(header + (f" {'exact':>10}" if reference is not None else ""))
    for x in SITES:
        line = f"{x:>5} {freq.get(x, 0.0):>10.4f}"
        if reference is not None:
            line += f" {reference.get(x, 0.0):>10.4f}"
        print(line)


def main() -> None:
    rng = RngStream(SEED)
    net = build_robens(0.95)

    untouched = run(net, PARTICLES, rng.derive(0), taps_enabled=True)
    freq_a = {x: c / PARTICLES for x, c in untouched.counts.items()}
    _, exact_a = hadamard_walk(4, StateVector.basis(0, UP))
    show("(a) untouched walk", freq_a, exact_a)

    kept_minus = run(net, PARTICLES, rng.derive(1),
                     filters=[RemovalFilter("t2", +1)])
    freq_b = {x: c / PARTICLES for x, c in kept_minus.counts.items()}
    _, exact_b = hadamard_walk(3, StateVector.basis(-1, UP, 1 / math.sqrt(2)))
    show(f"(b) x=+1 removed at t2 ({kept_minus.removed} particles absorbed)",
         freq_b, exact_b)

    kept_plus = run(net, PARTICLES, rng.derive(2),
                    filters=[RemovalFilter("t2", -1)])
    freq_c = {x: c / PARTICLES for x, c in kept_plus.counts.items()}
    _, exact_c = hadamard_walk(3, StateVector.basis(+1, DOWN, 1 / math.sqrt(2)))
    show(f"(c) x=-1 removed at t2 ({kept_plus.removed} particles absorbed)",
         freq_c, exact_c)

    freq_d = {x: freq_b.get(x, 0.0) + freq_c.get(x, 0.0) for x in SITES}
    show("(d) = (b) + (c): symmetric, unlike (a)", freq_d, None)

    tagged = untouched.t2  # tagged[x2][x]: observed at x2 on t2, detected at x
    freq_e = {x: tagged[-1][x] / PARTICLES for x in SITES}
    freq_f = {x: tagged[1][x] / PARTICLES for x in SITES}
    show("(e) untouched walk, particles observed at x=-1", freq_e, None)
    show("(f) untouched walk, particles observed at x=+1", freq_f, None)

    resum_exact = all(tagged[-1][x] + tagged[1][x] == untouched.counts[x]
                      for x in SITES)
    print(f"\n(e) + (f) re-sums to (a) exactly: {resum_exact}")
    print("(b) differs from (e), and (c) from (f): removal changes what the")
    print("downstream units learn, observation does not.")


if __name__ == "__main__":
    main()
