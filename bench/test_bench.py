"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q
"""
import json
import re
from pathlib import Path

import pytest

from qwalk.core import RngStream, derive_seed
from qwalk.network import RemovalFilter, build_jeong, build_robens, run

import checks
import tracing
from run import tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: every metric the benchmark is specified to report: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("particles_per_s", "1/s", "higher"),
    ("job_s.p50", "s", "lower"),
    ("job_s.tail", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
PER_LAYER = [
    ("core.adaptive_update_ns", "ns", "lower"),
    ("core.bs_route_ns", "ns", "lower"),
    ("core.pbs_route_ns", "ns", "lower"),
    ("core.derive_seed_us", "us", "lower"),
    ("network.build_ms", "ms", "lower"),
    ("network.build_units", "count", "lower"),
    ("network.run_s", "s", "lower"),
    ("network.run_calls", "count", "lower"),
    ("network.run_hops", "count", "lower"),
    ("network.run_ns_per_hop", "ns", "lower"),
    ("network.run_particles_per_s", "1/s", "higher"),
    ("network.run_removed_ratio", "ratio", "lower"),
    ("network.taps_overhead_ratio", "ratio", "lower"),
    ("network.records_peak_mib", "MiB", "lower"),
    ("theory.jeong_evolve_ms", "ms", "lower"),
    ("theory.hadamard_walk_ms", "ms", "lower"),
    ("leggett_garg.three_run_replicate_s", "s", "lower"),
    ("leggett_garg.single_run_replicate_s", "s", "lower"),
    ("leggett_garg.run_protocol_s", "s", "lower"),
    ("leggett_garg.dispatch_efficiency", "ratio", "higher"),
    ("leggett_garg.k_single_run_ms", "ms", "lower"),
    ("leggett_garg.k_three_run_us", "us", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# --- tail percentile ------------------------------------------------------------

def test_tail_is_omitted_without_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    assert tail([]) is None


def test_tail_keeps_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    value, percentile = tail(samples)
    assert value == 90.0 and percentile == 90.0
    assert sum(s > value for s in samples) == 10
    value, percentile = tail([float(x) for x in range(11)])
    assert value == 0.0 and percentile == pytest.approx(100 / 11)


# --- span arithmetic ------------------------------------------------------------

def _span(sid, start, end, parent=None, name="network.run"):
    return tracing.Span(sid, name, start, end, parent, "j", {})


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, 0, 100, name="job"),
        _span(1, 10, 30, parent=0),
        _span(2, 20, 50, parent=0),          # overlaps span 1
        _span(3, 60, 70, parent=0),
        _span(4, 62, 68, parent=3, name="core.derive_seed"),  # grandchild
        _span(5, 95, 120, parent=0),          # runs past the parent's end
    ]
    kids = tracing.children_of(spans)
    assert tracing.self_time(spans[0], kids) == 100 - (40 + 10 + 5)
    assert tracing.self_time(spans[3], kids) == 10 - 6
    assert tracing.self_time(spans[4], kids) == 6
    by_layer = tracing.self_time_by_layer(spans)
    assert by_layer == {"cli": 45, "network": 20 + 30 + 4 + 25, "core": 6}


def test_tracer_nests_spans_and_adopts_another_process():
    tracer = tracing.Tracer()
    tracer.job = "j1"
    with tracer.span("job"):
        with tracer.span("network.run"):
            pass
    root = tracer.spans[-1]
    assert root.name == "job" and root.parent is None and root.job == "j1"
    assert tracer.spans[0].parent == root.id
    tracer.adopt([{"id": 0, "name": "cli.import", "start": 1, "end": 2,
                   "parent": None, "attrs": {}},
                  {"id": 1, "name": "core.derive_seed", "start": 1, "end": 2,
                   "parent": 0, "attrs": {}}], root.id, "j1")
    adopted = tracer.spans[-2:]
    assert adopted[0].parent == root.id
    assert adopted[1].parent == adopted[0].id
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_tracing_wraps_and_restores_the_public_functions():
    import qwalk.cli
    import qwalk.leggett_garg
    original = qwalk.cli.run
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert qwalk.cli.run is not original
        assert qwalk.leggett_garg.run is qwalk.cli.run
        net = build_jeong(2, 0.0, 0.0)
        qwalk.cli.run(net, 10, RngStream(1))
    finally:
        restore()
    assert qwalk.cli.run is original
    spans = {s.name: s for s in tracer.spans}
    assert spans["network.run"].attrs == {"particles": 10, "removed": 0, "hops": 20}
    assert spans["core.derive_seed"].parent == spans["network.run"].id


# --- hop accounting -------------------------------------------------------------

class CountingRng(RngStream):
    """An RngStream whose children share one draw counter."""

    __slots__ = ("draws",)

    def __init__(self, seed, draws=None):
        super().__init__(seed)
        self.draws = draws if draws is not None else [0]
        draw = self._gen.random

        def counted():
            self.draws[0] += 1
            return draw()
        self.random = counted

    def derive(self, *indices):
        return CountingRng(derive_seed(self.seed, *indices), self.draws)


@pytest.mark.parametrize("levels", [1, 3, 5])
def test_jeong_hops_are_levels_times_detected(levels):
    net = build_jeong(levels, 0.3, -0.7, 0.95)
    rng = CountingRng(11)
    result = run(net, 300, rng)
    detected = sum(result.counts.values())
    assert rng.draws[0] == tracing.adaptive_hops(net, detected, 0) == levels * detected


@pytest.mark.parametrize("filters", [[], [RemovalFilter("t2", +1)],
                                     [RemovalFilter("t2", -1)]])
def test_robens_hops_are_eight_per_detected_two_per_removed(filters):
    net = build_robens(0.95)
    rng = CountingRng(12)
    result = run(net, 300, rng, filters=filters)
    detected = sum(result.counts.values())
    assert (rng.draws[0] == tracing.adaptive_hops(net, detected, result.removed)
            == 8 * detected + 2 * result.removed)
    assert (result.removed > 0) == bool(filters)


# --- metric declarations --------------------------------------------------------

def test_metric_names_and_units_follow_the_grammar():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert not NAME.fullmatch("bad name") and not NAME.fullmatch(".hidden")


def test_every_specified_metric_is_declared_with_unit_and_direction():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, unit, better in END_TO_END + PER_LAYER:
        assert declared.get(name) == (unit, better), name
    assert [m["name"] for m in SPEC["end_to_end"]] == [m[0] for m in END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == {"jeong_deep", "lgi", "cli_short"}


# --- output checks --------------------------------------------------------------

def _jeong4_csv(counts):
    oracle = {int(s): p for s, p in REFERENCE["oracles"]["jeong4"].items()}
    total = 2000
    lines = [checks.SITE_HEADER] + [
        f"{s},{c},{c / total!r},{oracle[s]!r}" for s, c in zip(sorted(oracle), counts)]
    return ("\n".join(lines) + "\n").encode()


def test_site_check_passes_theory_and_catches_breaks():
    oracle = REFERENCE["oracles"]["jeong4"]
    exact = [round(2000 * oracle[s]) for s in sorted(oracle, key=int)]
    exact[2] += 2000 - sum(exact)
    assert checks.check("jeong4", 2000, _jeong4_csv(exact), REFERENCE)[0] == []
    lost = list(exact)
    lost[0] -= 1
    assert any("conservation" in p for p in
               checks.check("jeong4", 2000, _jeong4_csv(lost), REFERENCE)[0])
    classical = [125, 500, 750, 500, 125]
    assert any("total variation" in p for p in
               checks.check("jeong4", 2000, _jeong4_csv(classical), REFERENCE)[0])
    assert checks.check("jeong4", 2000, b"sites\n1\n", REFERENCE)[0]


def test_lgi_check_needs_three_run_violation_and_k_inside_bands():
    def report(k3, verdict3, k1):
        return "\n".join([
            checks.LGI_HEADER,
            f"three_run,{k3},0.01,0.1,0.6,0.5,0.5,2,{verdict3}",
            f"single_run,{k1},0.01,0.1,0.1,0.5,0.5,2,violation"]).encode() + b"\n"
    assert checks.check("lgi", 0, report(1.5, "violation", 1.0), REFERENCE)[0] == []
    assert checks.check("lgi", 0, report(1.5, "no_violation", 1.0), REFERENCE)[0]
    # a single-run K at the three-run value is what an invasive tap gives
    assert checks.check("lgi", 0, report(1.5, "violation", 1.5), REFERENCE)[0]
