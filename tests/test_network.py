"""Topology builders, the sequential event loop, taps, and removal filters."""
import math
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.core import (
    SOURCE_MESSAGE,
    AdaptiveState,
    BeamSplitter,
    Detector,
    HadamardUnit,
    PhaseShifter,
    PolarizingBeamSplitter,
    RngStream,
    Source,
    adaptive_update,
    bs_route,
    hadamard_apply,
    pbs_route,
)
from qwalk import _kernel, network
from qwalk.cli import main
from qwalk.errors import DegenerateAmplitude, InvalidLevels, QwalkError, UnwiredPort
from qwalk.network import (
    Network,
    RemovalFilter,
    _plan,
    build_jeong,
    build_robens,
    run,
)
from qwalk.theory import jeong_evolve, srw_distribution, total_variation
from test_core import phase_shift

PHI1 = math.pi / 2
PHI2 = -math.pi / 2


# --- mesh builder -----------------------------------------------------------

def test_smallest_mesh_is_one_splitter_two_detectors():
    net = build_jeong(1, PHI1, PHI2)
    assert net.detector_sites == [-1, 1]
    assert len([u for u in net.units if isinstance(u, BeamSplitter)]) == 1
    assert len([u for u in net.units if isinstance(u, PhaseShifter)]) == 0
    assert len([u for u in net.units if isinstance(u, Detector)]) == 2

def test_four_level_mesh_layout():
    net = build_jeong(4, PHI1, PHI2)
    assert net.detector_sites == [-4, -2, 0, 2, 4]
    # one bare splitter plus one per occupied site on levels 2..4
    assert len([u for u in net.units if isinstance(u, BeamSplitter)]) == 1 + 2 + 3 + 4
    # each dressed splitter carries an input and an output phase shifter
    assert len([u for u in net.units if isinstance(u, PhaseShifter)]) == 2 * (2 + 3 + 4)

def test_seven_level_mesh_has_eight_detector_sites():
    net = build_jeong(7, PHI1, PHI2)
    assert net.detector_sites == [-7, -5, -3, -1, 1, 3, 5, 7]

@pytest.mark.parametrize("levels", [0, -2, 13])
def test_mesh_levels_bounds(levels):
    with pytest.raises(InvalidLevels):
        build_jeong(levels, PHI1, PHI2)


# --- polarized builder ---------------------------------------------------------

def test_polarized_network_layout():
    net = build_robens(0.95)
    assert net.detector_sites == [-4, -2, 0, 2, 4]
    pbs = [u for u in net.units if isinstance(u, PolarizingBeamSplitter)]
    # one splitting PBS per occupied site (1+2+3+4) and one merging PBS per
    # target site (2+3+4+5); the merges leave out-port 1 unwired
    assert len(pbs) == (1 + 2 + 3 + 4) + (2 + 3 + 4 + 5)
    assert len([u for u in pbs if u.out[1] is None]) == 2 + 3 + 4 + 5
    assert sorted(net.cut_points) == ["t1", "t2", "t3"]
    assert sorted(net.cut_points["t1"]) == [0]
    assert sorted(net.cut_points["t2"]) == [-1, 1]
    assert sorted(net.cut_points["t3"]) == [-4, -2, 0, 2, 4]

@pytest.mark.parametrize("phases", [(math.nan, PHI2), (PHI1, math.inf),
                                    (-math.inf, PHI2)])
def test_mesh_phases_must_be_finite(phases):
    with pytest.raises(ValueError):
        build_jeong(3, *phases)

def test_validation_catches_dangling_port():
    net = Network()
    source = net.add(Source())
    bs = net.add(BeamSplitter(0.9))
    net.connect(source, 0, bs, 0)
    det = net.add(Detector(-1))
    net.connect(bs, 0, det, 0)
    with pytest.raises(UnwiredPort):
        run(net, 1, RngStream(1))  # bs output port 1 dangles

@pytest.mark.parametrize("wiring,message", [
    (("bs", -1, "det", 0), "BeamSplitter has no output port -1"),
    (("source", 0, "bs", 2), "BeamSplitter has no input port 2"),
    (("bs", 0, "det", 1), "Detector has no input port 1"),
], ids=["splitter out-port -1", "splitter in-port 2", "detector in-port 1"])
def test_connect_rejects_ports_the_units_lack(wiring, message):
    net = Network()
    units = {"source": net.add(Source()), "bs": net.add(BeamSplitter(0.9)),
             "det": net.add(Detector(0))}
    src, src_port, dst, dst_port = wiring
    with pytest.raises(QwalkError, match=f"^{message}$"):
        net.connect(units[src], src_port, units[dst], dst_port)
    assert all(wire is None for unit in net.units for wire in unit.out)


# --- event loop --------------------------------------------------------------

def reference_run(net, n_particles, rng, filters=(), taps_enabled=False):
    """Walk the unit graph with the core functions, one call per unit.

    Adaptive unit j draws from rng.derive(j), once per arrival, after the
    register update.  Returns (counts, t2, removed, {unit index: registers}).
    """
    states, draws = {}, {}
    for j, unit in enumerate(net.units):
        if isinstance(unit, BeamSplitter):
            states[j] = AdaptiveState(unit.gamma)
            draws[j] = rng.derive(j).random
    index = {id(unit): j for j, unit in enumerate(net.units)}
    absorbed = {id(net.cut_points[f.label][f.site]) for f in filters}
    counts = {site: 0 for site in net.detector_sites}
    t2 = ({x2: {site: 0 for site in net.detector_sites}
           for x2 in net.cut_points["t2"]} if taps_enabled else {})
    removed = 0
    for _ in range(n_particles):
        wire, m, x2 = net.source.out[0], SOURCE_MESSAGE, None
        while True:
            if id(wire) in absorbed:
                removed += 1
                break
            if wire.tap_label == "t2":
                x2 = wire.tap_site
            unit = wire.dst
            if isinstance(unit, Detector):
                counts[unit.site] += 1
                if taps_enabled:
                    t2[x2][unit.site] += 1
                break
            if isinstance(unit, PhaseShifter):
                port, m = 0, phase_shift(unit.phi, m)
            elif isinstance(unit, HadamardUnit):
                port, m = 0, hadamard_apply(m)
            else:
                j = index[id(unit)]
                adaptive_update(states[j], wire.dst_port, m)
                polarizing = isinstance(unit, PolarizingBeamSplitter)
                route = pbs_route if polarizing else bs_route
                port, m = route(states[j], wire.dst_port, m, draws[j]())
            wire = unit.out[port]
    return counts, t2, removed, states

def state_registers(state):
    return (state.w0, state.w1, state.y0h, state.y0v, state.y1h, state.y1v)

def registers(reg, j):
    """Unit j's registers in a run's register array, as state_registers has them."""
    w0, w1, *y = reg[10 * j:10 * j + 10]
    return (w0, w1, *map(complex, y[::2], y[1::2]))

def splitter_registers(net, reg):
    """repr of every adaptive unit's registers, which tells -0.0 from 0.0."""
    return {j: repr(registers(reg, j)) for j, unit in enumerate(net.units)
            if isinstance(unit, BeamSplitter)}

def splice_hadamard(net, unit, port):
    """Puts a HadamardUnit on the wire leaving ``unit`` on out-port ``port``."""
    wire = unit.out[port]
    unit.out[port] = None
    had = net.add(HadamardUnit())
    net.connect(unit, port, had, 0)
    net.connect(had, 0, wire.dst, wire.dst_port)
    return net

def build_mixed(levels, phi1, phi2, gamma=0.95):
    """Jeong mesh with a HadamardUnit spliced onto the source wire.

    Every splitter then sees messages with both an h and a v half.
    """
    net = build_jeong(levels, phi1, phi2, gamma)
    return splice_hadamard(net, net.source, 0)

def build_revived(levels, phi1, phi2, gamma=0.95):
    """Jeong mesh (levels >= 2) with a HadamardUnit on the top splitter's down rail.

    The top splitter and those fed by its up rail alone see no v half;
    the Hadamard revives it for the splitters downstream of the down rail.
    """
    net = build_jeong(levels, phi1, phi2, gamma)
    return splice_hadamard(net, net.source.out[0].dst, 1)

def build_rejoined(gamma=0.95):
    """Hadamard, then a PBS whose two rails re-merge on a second PBS.

    The v rail passes a second Hadamard, so the second PBS is fed h on
    port 0 and both halves on port 1, and emits on both ports.
    """
    net = Network()
    source = net.add(Source())
    first_had, second_had = net.add(HadamardUnit()), net.add(HadamardUnit())
    split = net.add(PolarizingBeamSplitter(gamma))
    rejoin = net.add(PolarizingBeamSplitter(gamma))
    net.connect(source, 0, first_had, 0)
    net.connect(first_had, 0, split, 0)
    net.connect(split, 0, rejoin, 0)
    net.connect(split, 1, second_had, 0)
    net.connect(second_had, 0, rejoin, 1)
    net.connect(rejoin, 0, net.add(Detector(-1)), 0)
    net.connect(rejoin, 1, net.add(Detector(1)), 0)
    return net

class CountingRng(RngStream):
    """An RngStream that tallies the draws of each derived stream by index."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = {}

    def derive(self, *indices):
        child = super().derive(*indices)
        draw = child.random

        def counted():
            self.draws[indices] = self.draws.get(indices, 0) + 1
            return draw()
        child.random = counted
        return child

def run_on_kernel(net, n, seed, filters=(), taps=False):
    """run() on the compiled kernel.

    A kernel that does not load fails the caller instead of being skipped.
    """
    real, calls = _kernel.run, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    _kernel.run = spy
    try:
        result = run(net, n, RngStream(seed), filters=filters, taps_enabled=taps)
    finally:
        _kernel.run = real
    assert len(calls) == 1, "the compiled kernel did not run"
    return result

finite_phases = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)

@given(st.one_of(
           st.tuples(st.just("jeong"), st.integers(1, 6), finite_phases,
                     finite_phases, st.just(None), st.just(False)),
           st.tuples(st.just("mixed"), st.integers(1, 4), finite_phases,
                     finite_phases, st.just(None), st.just(False)),
           st.tuples(st.just("revived"), st.integers(2, 5), finite_phases,
                     finite_phases, st.just(None), st.just(False)),
           st.tuples(st.just("robens"), st.just(0), st.just(0.0), st.just(0.0),
                     st.sampled_from([None, -1, +1]), st.booleans()),
           st.tuples(st.just("rejoined"), st.just(0), st.just(0.0), st.just(0.0),
                     st.just(None), st.just(False))),
       st.floats(0.0, 0.99), st.integers(0, 2 ** 64 - 1), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_compiled_loop_matches_reference_stepper(shape, gamma, seed, n):
    # both event loops over the compiled tables, the C kernel and the Python
    # loop, must reproduce, bit for bit, the walk that calls the core
    # functions unit by unit: counts, t2 table, removed tally and every
    # final register.  The Python loops draw from a unit's stream once per
    # arrival (a merge too, although its port is fixed).  The shapes
    # reach every case of the kernel (see tests/test_kernel.py), and the
    # revived mesh feeds splitters with a dead v half into ones where it
    # lives again.
    # A CountingRng is a subclassed stream, so it keeps the Python loop.
    name, levels, phi1, phi2, removed_site, taps = shape
    if name == "jeong":
        net = build_jeong(levels, phi1, phi2, gamma)
    elif name == "mixed":
        net = build_mixed(levels, phi1, phi2, gamma)
    elif name == "revived":
        net = build_revived(levels, phi1, phi2, gamma)
    elif name == "rejoined":
        net = build_rejoined(gamma)
    else:
        net = build_robens(gamma)
    filters = [] if removed_site is None else [RemovalFilter("t2", removed_site)]
    reference = CountingRng(seed)
    counts, t2, removed, states = reference_run(net, n, reference, filters, taps)
    expected = {j: state_registers(state) for j, state in states.items()}

    result = run_on_kernel(net, n, seed, filters, taps)
    assert (result.counts, result.t2, result.removed) == (counts, t2, removed)
    assert {j: registers(result.registers, j) for j in states} == expected
    on_kernel = splitter_registers(net, result.registers)

    counted = CountingRng(seed)
    result = run(net, n, counted, filters=filters, taps_enabled=taps)
    assert (result.counts, result.t2, result.removed) == (counts, t2, removed)
    assert counted.draws == reference.draws
    assert {j: registers(result.registers, j) for j in states} == expected
    # the two loops agree to the bit
    assert splitter_registers(net, result.registers) == on_kernel

def test_particle_at_dark_port_raises():
    # an unwired port that does carry amplitude stops the run instead of
    # letting particles vanish there
    net = Network()
    source = net.add(Source())
    bs = net.add(BeamSplitter(0.9))
    net.connect(source, 0, bs, 0)
    net.connect(bs, 0, net.add(Detector(-1)), 0)
    with pytest.raises(UnwiredPort):
        run(net, 200, RngStream(1))

def test_two_stateless_units_on_one_edge_are_rejected():
    net = Network()
    source = net.add(Source())
    first, second = net.add(PhaseShifter(0.1)), net.add(HadamardUnit())
    net.connect(source, 0, first, 0)
    net.connect(first, 0, second, 0)
    net.connect(second, 0, net.add(Detector(0)), 0)
    with pytest.raises(QwalkError):
        run(net, 1, RngStream(1))

def splitter_into_detectors(net):
    """Source -> beam splitter; returns the splitter and two unwired detectors."""
    bs = net.add(BeamSplitter(0.9))
    net.connect(net.add(Source()), 0, bs, 0)
    return bs, net.add(Detector(-1)), net.add(Detector(1))

def no_source(net):
    bs = net.add(BeamSplitter(0.9))
    net.connect(bs, 0, net.add(Detector(-1)), 0)
    net.connect(bs, 1, net.add(Detector(1)), 0)

def self_loop(net):
    bs, _, right = splitter_into_detectors(net)
    net.connect(bs, 0, bs, 1)
    net.connect(bs, 1, right, 0)

def self_loop_through_phase(net):
    bs, _, right = splitter_into_detectors(net)
    phase = net.add(PhaseShifter(0.3))
    net.connect(bs, 0, phase, 0)
    net.connect(phase, 0, bs, 1)
    net.connect(bs, 1, right, 0)

def live_port_unwired(net):
    bs, left, _ = splitter_into_detectors(net)
    net.connect(bs, 0, left, 0)

def unit_never_added(net):
    bs, left, _ = splitter_into_detectors(net)
    net.connect(bs, 0, left, 0)
    net.connect(bs, 1, Detector(1), 0)

def two_sources(net):
    bs, left, right = splitter_into_detectors(net)
    net.connect(bs, 0, left, 0)
    net.connect(bs, 1, right, 0)
    net.connect(net.add(Source()), 0, bs, 1)

@pytest.mark.parametrize("wire,error,message", [
    (no_source, QwalkError, "^network has no source$"),
    (self_loop, QwalkError, "^wiring graph contains a cycle$"),
    (self_loop_through_phase, QwalkError, "^wiring graph contains a cycle$"),
    (live_port_unwired, UnwiredPort, "^the path from BeamSplitter output port 1 ends unwired$"),
    (unit_never_added, QwalkError,
     "^Detector is wired in but was never added to the network$"),
    (two_sources, QwalkError, "^network already has a source$"),
], ids=["no source", "cycle", "cycle through a phase shifter",
        "live port unwired", "unit never added", "second source"])
def test_run_rejects_malformed_networks(wire, error, message):
    # run() checks the network it gets before any particle moves
    net = Network()
    rng = CountingRng(1)
    with pytest.raises(error, match=message):
        wire(net)
        run(net, 1000, rng)
    assert rng.draws == {}
    assert sum(isinstance(unit, Source) for unit in net.units) <= 1

# --- the two event loops ----------------------------------------------------------

@pytest.fixture(params=["kernel", "python loop"])
def loop(request, monkeypatch):
    """Pins run() to one event loop; a kernel that does not load fails the test."""
    if request.param == "python loop":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    else:
        assert _kernel.load() is not None, "the compiled kernel did not load"
    return request.param

def test_a_network_with_no_unit_that_draws_runs(loop):
    # the kernel then holds no stream at all, and an allocation of none is
    # no lack of memory
    net = Network()
    source, shift = net.add(Source()), net.add(PhaseShifter(0.3))
    net.connect(source, 0, shift, 0)
    net.connect(shift, 0, net.add(Detector(0)), 0)
    result = run(net, 5, RngStream(1))
    assert (result.counts, result.removed) == ({0: 5}, 0)

#: network, filters and taps of a run; the shapes reach every splitter case
#: of the kernel
RUN_SHAPES = pytest.mark.parametrize("build,filters,taps", [
    (lambda: build_jeong(12, PHI1, PHI2, 0.98), [], False),
    (lambda: build_mixed(5, 0.3, -1.1, 0.9), [], False),
    (lambda: build_robens(0.95), [], True),
    (lambda: build_robens(0.95), [RemovalFilter("t2", -1)], False),
    (build_rejoined, [], False),
], ids=["jeong", "mixed", "robens taps", "robens minus", "rejoined"])

@RUN_SHAPES
def test_python_loop_runs_the_core_functions(monkeypatch, build, filters, taps):
    # every adaptive hop of the Python loop is one adaptive_update and one
    # bs_route (mesh) or pbs_route (polarized walk) call, after which the
    # unit draws once, whatever dead halves its messages have
    calls = dict.fromkeys(["adaptive_update", "bs_route", "pbs_route"], 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(network, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(network, name, counted)
    net, rng = build(), CountingRng(3)
    result = run(net, 300, rng, filters=filters, taps_enabled=taps)
    draws = sum(rng.draws.values())
    assert sum(result.counts.values()) > 0 and draws > 300
    polarized = any(isinstance(unit, PolarizingBeamSplitter) for unit in net.units)
    assert calls == {"adaptive_update": draws,
                     "bs_route": 0 if polarized else draws,
                     "pbs_route": draws if polarized else 0}

@RUN_SHAPES
def test_python_loop_gives_identical_run_results(monkeypatch, build, filters, taps):
    # with the loader stubbed as unavailable, run() takes the Python loop
    # and returns the kernel's result and registers
    net = build()
    result = run_on_kernel(net, 3000, 99, filters, taps)
    on_kernel = splitter_registers(net, result.registers)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    on_loop = run(net, 3000, RngStream(99), filters=filters, taps_enabled=taps)
    assert on_loop == result
    assert splitter_registers(net, on_loop.registers) == on_kernel

def test_loops_agree_to_the_bit_over_many_short_runs(monkeypatch):
    # the loops must agree on every double, not only on the counts: a
    # last-bit difference in a square or a product (one fused into an FMA,
    # or terms summed in another order) reaches a final register in some
    # short runs long before it moves a count, so a hundred of them pin
    # the kernel's arithmetic to CPython's
    def runs():
        for seed in range(100):
            net = build_jeong(12, 0.3, -1.1, 0.125)
            yield seed, net, run(net, 20, RngStream(seed))

    assert _kernel.load() is not None, "the compiled kernel did not load"
    on_kernel = [(result, splitter_registers(net, result.registers))
                 for _seed, net, result in runs()]
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for seed, net, result in runs():
        assert (result, splitter_registers(net, result.registers)) == on_kernel[seed]

def build_uneven(gamma=0.9):
    """Three beam splitters; the last is reached on paths of two lengths.

    The first splitter feeds the last one straight from out-port 0 and
    through the middle one from out-port 1, so a particle enters the last
    splitter on its second or on its third hop, and the last splitter's
    rank is 3.
    """
    net = Network()
    source = net.add(Source())
    first, middle, last = (net.add(BeamSplitter(gamma)) for _ in range(3))
    net.connect(source, 0, first, 0)
    net.connect(first, 0, last, 0)
    net.connect(first, 1, middle, 0)
    net.connect(middle, 0, last, 1)
    net.connect(middle, 1, net.add(Detector(3)), 0)
    net.connect(last, 0, net.add(Detector(-1)), 0)
    net.connect(last, 1, net.add(Detector(1)), 0)
    return net

@pytest.mark.parametrize("build", [
    lambda: build_jeong(1, PHI1, PHI2), lambda: build_jeong(7, PHI1, PHI2),
    lambda: build_mixed(4, PHI1, PHI2), lambda: build_revived(4, PHI1, PHI2),
    build_robens, build_rejoined, build_uneven,
], ids=["mesh1", "mesh7", "mixed", "revived", "robens", "rejoined", "uneven"])
def test_rank_grows_along_every_wired_edge(build):
    # the kernel lets a particle into a unit only once every older particle
    # in flight has passed the unit's rank, which is sound only if a
    # particle never enters a unit of its last unit's rank or below again
    net = build()
    plan = _plan(net)
    n = len(net.units)
    wired = [(e, target) for e, target in enumerate(plan.dst) if target < n]
    assert wired
    for e, target in wired:
        assert plan.rank[target] > plan.rank[e // 2]
    assert plan.rank[plan.start // 2] == 0

def test_kernel_orders_particles_by_rank_not_by_hop_count(monkeypatch):
    # in build_uneven a particle that leaves the first splitter on port 0
    # reaches the last one (rank 3) on its second hop, while an older one
    # that left on port 1 enters the middle one (rank 2) then, and the last
    # one only on its third hop.  The kernel holds the younger particle
    # until the older one has passed rank 3, so the last splitter sees its
    # particles in the order they were emitted.  A kernel that compared
    # hop counts instead of ranks lets the younger one in first, and was
    # checked to fail here, on the registers and on the counts
    net = build_uneven()
    plan = _plan(net)
    last = 3
    assert plan.dst[2 * 1] == last and plan.rank[last] == 3
    seeds = range(20)
    on_kernel = []
    for seed in seeds:
        result = run_on_kernel(net, 2000, seed)
        on_kernel.append((result.counts, splitter_registers(net, result.registers)))
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for seed, expected in zip(seeds, on_kernel):
        result = run(net, 2000, RngStream(seed))
        assert (result.counts, splitter_registers(net, result.registers)) == expected

def build_forked(gamma=0.9):
    """A splitter whose out-port 0 leads to a detector, and port 1 to another splitter.

    Out-port 0 of each splitter passes a phase shifter; detector -1 ends
    the short path (two hops), detectors 0 and 1 the long ones (three
    hops).
    """
    net = Network()
    source = net.add(Source())
    first, second = net.add(BeamSplitter(gamma)), net.add(BeamSplitter(gamma))
    short, long = net.add(PhaseShifter(0.0)), net.add(PhaseShifter(0.0))
    net.connect(source, 0, first, 0)
    net.connect(first, 0, short, 0)
    net.connect(short, 0, net.add(Detector(-1)), 0)
    net.connect(first, 1, second, 0)
    net.connect(second, 0, long, 0)
    net.connect(long, 0, net.add(Detector(0)), 0)
    net.connect(second, 1, net.add(Detector(1)), 0)
    return net

def test_an_error_behind_older_particles_is_the_sequential_runs(monkeypatch):
    # with the phase factor of the short path doubled and that of the long
    # one tripled, a particle detected at -1 stops the run with squared
    # norm 4 on its second hop and one detected at 0 with norm 9 on its
    # third.  The run's error is that of the first particle, in emission
    # order, to stop.  Among the seeds below, that particle is sometimes
    # not the first emitted, behind one that takes the long, healthy path
    # and so is still in flight when it stops, and sometimes it takes the
    # long failing path just ahead of one that would stop on the short
    # path a hop sooner: the kernel must report the older one (a kernel
    # that returned at the first error in time was checked to fail here).
    # Both loops raise the same error on every seed
    def path(seed, n=8):
        # the detectors the first n particles reach on the healthy network
        net, sites, before = build_forked(), [], {}
        for k in range(1, n + 1):
            counts = run(net, k, RngStream(seed)).counts
            sites += [site for site in counts if counts[site] != before.get(site, 0)]
            before = counts
        return sites

    def faulty():
        net = build_forked()
        plan = _plan(net)
        for unit, scale in ((1, 2.0), (2, 3.0)):  # out-port 0 of each splitter
            e = 2 * unit
            assert plan.xform[e] == network._PHASE
            plan.factor[2 * e] *= scale
            plan.factor[2 * e + 1] *= scale
        return net

    def errors():
        for seed in seeds:
            with pytest.raises(QwalkError) as exc:
                run(faulty(), 2000, RngStream(seed))
            yield str(exc.value)

    seeds = range(30)
    assert _kernel.load() is not None, "the compiled kernel did not load"
    on_kernel = list(errors())
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert list(errors()) == on_kernel
    behind_healthy = behind_failing = 0
    for seed, message in zip(seeds, on_kernel):
        sites = path(seed)
        m = next(i for i, site in enumerate(sites) if site != 1)
        norm = float(re.search(r"squared norm (\S+) reached", message)[1])
        assert round(norm) == (9 if sites[m] == 0 else 4)
        behind_healthy += m > 0 and sites[m] == -1
        behind_failing += sites[m:m + 2] == [0, -1]
    assert behind_healthy and behind_failing

def vanishing_mesh(monkeypatch):
    # at the largest gamma below 1 the first arrival leaves |y0| = 2**-53
    return build_jeong(1, PHI1, PHI2, 1 - 2 ** -53)

def live_port_unwired_mesh(monkeypatch):
    net = Network()
    live_port_unwired(net)
    return net

def corrupted_mesh(monkeypatch):
    # the template every run copies its registers from: unit 1's w1
    net = build_jeong(1, PHI1, PHI2, 0.9)
    _plan(net).reg[10 * 1 + 1] = 0.7
    return net

@pytest.mark.parametrize("make,error,message", [
    (vanishing_mesh, DegenerateAmplitude, "routing amplitudes vanished at "
     "BeamSplitter 1 on particle 1 of 1 "
     "(p0=3.0814879110195774e-33, p1=3.0814879110195774e-33)"),
    (live_port_unwired_mesh, UnwiredPort,
     "the path from BeamSplitter output port 1 ends unwired"),
    (corrupted_mesh, QwalkError, "register invariant breach at BeamSplitter 1: "
     "w0=0.55, w1=0.63, |y0|=0.09999999999999998, |y1|=0.0"),
], ids=["vanished", "unwired", "register breach"])
def test_errors_keep_messages_and_exit_codes(loop, monkeypatch, capsys, make,
                                             error, message):
    # vanished routing amplitudes, which valid parameters allow, stop the
    # run; every other error is a breach of what the network guarantees
    net = make(monkeypatch)
    with pytest.raises(error) as exc:
        run(net, 1, RngStream(1))
    assert str(exc.value) == message
    monkeypatch.setattr("qwalk.cli.build_jeong", lambda *args: net)
    assert main(["jeong", "--steps", "1", "--particles", "1"]) == 3
    prefix = ("run stopped" if error is DegenerateAmplitude
              else "internal invariant breach")
    assert capsys.readouterr().err == f"qwalk: {prefix}: {message}\n"

def test_tapped_particle_must_cross_t2(loop):
    # a detector reached without crossing t2 has no row in the t2 table
    net = Network()
    bs, left, right = splitter_into_detectors(net)
    net.connect(bs, 0, left, 0, tap=("t2", -1))
    net.connect(bs, 1, right, 0)
    with pytest.raises(QwalkError, match="^taps are on, but a particle reached "
                                         "a detector without crossing t2$"):
        run(net, 50, RngStream(4), taps_enabled=True)

def test_detector_sites_follow_the_detectors():
    # a hand-built network never states its detector sites; run() keys the
    # counts by the sites of the detectors it holds
    net = Network()
    bs, left, right = splitter_into_detectors(net)
    net.connect(bs, 0, left, 0)
    net.connect(bs, 1, right, 0)
    assert net.detector_sites == [-1, 1]
    result = run(net, 300, RngStream(2))
    assert sorted(result.counts) == [-1, 1]
    assert sum(result.counts.values()) == 300
    with pytest.raises(AttributeError):
        net.detector_sites = [0]

def test_detectors_at_one_site_share_its_count(loop):
    # the plan gives every detector the count slot of its site, so two
    # detectors at one site add to one count key
    net = Network()
    bs = net.add(BeamSplitter(0.9))
    net.connect(net.add(Source()), 0, bs, 0)
    for port in (0, 1):
        net.connect(bs, port, net.add(Detector(0)), 0)
    assert net.detector_sites == [0]
    assert run(net, 300, RngStream(2)).counts == {0: 300}

def test_counts_conserved_across_configurations():
    rng = RngStream(5)
    jeong = build_jeong(3, PHI1, PHI2, 0.9)
    result = run(jeong, 500, rng.derive(0))
    assert sum(result.counts.values()) == 500 and result.removed == 0
    robens = build_robens(0.9)
    for i, filters in enumerate(([], [RemovalFilter("t2", +1)],
                                 [RemovalFilter("t2", -1)])):
        result = run(robens, 400, rng.derive(i + 1), filters=filters,
                     taps_enabled=True)
        assert sum(result.counts.values()) + result.removed == 400
        assert sum(sum(row.values()) for row in result.t2.values()) + result.removed == 400

@pytest.mark.parametrize("register,value,shown", [("y1h", 3.0, "|y1|=3.0")])
def test_corrupted_registers_stop_the_run(monkeypatch, capsys, register, value,
                                          shown):
    # unit 1 of the one-level mesh is its splitter; one particle enters it on
    # port 0, which leaves |y1| = 3.0.  The corruption goes into the plan's
    # template, which every run copies.  A corrupted weight is the register
    # breach of test_errors_keep_messages_and_exit_codes
    net = build_jeong(1, PHI1, PHI2, 0.9)
    _plan(net).reg[10 * 1 + {"y1h": 6}[register]] = value
    with pytest.raises(QwalkError,
                       match=r"^register invariant breach at BeamSplitter 1: ") as exc:
        run(net, 1, RngStream(1))
    assert shown in str(exc.value)
    monkeypatch.setattr("qwalk.cli.build_jeong", lambda *args: net)
    assert main(["jeong", "--steps", "1", "--particles", "1"]) == 3
    assert "register invariant breach" in capsys.readouterr().err

def test_message_off_unit_norm_stops_the_run(loop, monkeypatch, capsys):
    # edge 37 of the four-level mesh runs from the splitter at x = -3
    # through its phi2 shifter into a detector.  Doubling the factor in the
    # plan quadruples the squared norm of every message that takes it, and
    # both loops check that norm at detection
    net = build_jeong(4, PHI1, PHI2, 0.95)
    plan = _plan(net)
    assert plan.xform[37] == network._PHASE
    assert plan.case[plan.dst[37]] == network._DETECTOR
    plan.factor[2 * 37] *= 2.0
    plan.factor[2 * 37 + 1] *= 2.0
    message = ("a message of squared norm 4.0 reached a detector; "
               "messages have unit norm to 1e-12")
    with pytest.raises(QwalkError) as exc:
        run(net, 2000, RngStream(1))
    assert str(exc.value) == message
    monkeypatch.setattr("qwalk.cli.build_jeong", lambda *args: net)
    assert main(["jeong", "--steps", "4", "--particles", "2000"]) == 3
    assert capsys.readouterr().err == f"qwalk: internal invariant breach: {message}\n"

@pytest.mark.parametrize("build", [build_robens,
                                   lambda g: build_mixed(4, PHI1, PHI2, g)],
                         ids=["robens", "mixed mesh"])
def test_register_check_holds_at_slowest_learning_rate(build):
    # the closer gamma is to 1, the longer rounding in w0 + w1 lingers
    net = build(0.999999)
    result = run(net, 100_000, RngStream(8))
    assert sum(result.counts.values()) == 100_000

def test_identical_seeds_reproduce_runs_bit_exactly():
    net = build_robens(0.95)
    a = run(net, 300, RngStream(77), taps_enabled=True)
    b = run(net, 300, RngStream(77), taps_enabled=True)
    assert a.counts == b.counts
    assert a.removed == b.removed
    assert a.t2 == b.t2

def test_different_seeds_differ():
    net = build_robens(0.95)
    a = run(net, 300, RngStream(77))
    b = run(net, 300, RngStream(78))
    assert a.counts != b.counts

def test_registers_reset_between_runs():
    # a second run on the same network with the same stream is identical,
    # and leaves every register where one run on a fresh network leaves it,
    # so no register state can leak across runs
    net = build_jeong(3, PHI1, PHI2)
    first = run(net, 200, RngStream(3))
    second = run(net, 200, RngStream(3))
    assert first.counts == second.counts
    fresh = build_jeong(3, PHI1, PHI2)
    alone = run(fresh, 200, RngStream(3))
    splitters = [j for j, unit in enumerate(net.units)
                 if isinstance(unit, BeamSplitter)]
    assert splitters
    for j in splitters:
        assert registers(second.registers, j) == registers(alone.registers, j)

@pytest.mark.parametrize("stream", [RngStream, CountingRng],
                         ids=["kernel", "python loop"])
def test_one_network_runs_like_fresh_networks(stream):
    # run() compiles a network once and reuses its tables; each run on it
    # must still equal the same run on a network built for that run alone.
    # A CountingRng is a subclassed stream, so it keeps the Python loop
    if stream is RngStream:
        assert _kernel.load() is not None, "the compiled kernel did not load"
    builders = {"robens": lambda: build_robens(0.95),
                "jeong": lambda: build_jeong(5, PHI1, PHI2, 0.9)}
    shared = {name: build() for name, build in builders.items()}
    for name, filters, taps, seed in [
        ("robens", [], False, 1),
        ("robens", [RemovalFilter("t2", +1)], False, 2),
        ("robens", [RemovalFilter("t2", -1)], False, 3),
        ("robens", [], True, 4),
        ("robens", [RemovalFilter("t2", -1)], True, 4),
        ("robens", [], False, 5),
        ("jeong", [], False, 6),
        ("jeong", [], False, 7),
    ]:
        net, fresh = shared[name], builders[name]()
        result = run(net, 400, stream(seed), filters=filters, taps_enabled=taps)
        expected = run(fresh, 400, stream(seed), filters=filters, taps_enabled=taps)
        assert (result.counts, result.t2, result.removed) == (
            expected.counts, expected.t2, expected.removed)
        assert (splitter_registers(net, result.registers)
                == splitter_registers(fresh, expected.registers))

def test_compiled_networks_are_shared_by_exact_arguments(monkeypatch):
    # one network per builder and argument bits: 0.0 and -0.0 differ, and so
    # do 1, 1.0 and True, which a plain lru_cache key would conflate
    monkeypatch.setattr(network, "_compiled_cache", {})
    built = []

    def builder(*args):
        built.append(args)
        return Network()

    a = network._compiled(builder, 0.95)
    assert network._compiled(builder, 0.95) is a
    assert network._compiled(lambda g: Network(), 0.95) is not a
    assert network._compiled(builder, 0.0) is not network._compiled(builder, -0.0)
    one = {network._compiled(builder, 3, x) for x in (1, 1.0, True)}
    assert len(one) == 3
    assert built == [(0.95,), (0.0,), (-0.0,), (3, 1), (3, 1.0), (3, True)]
    assert network._compiled(build_robens, 0.9) is network._compiled(build_robens, 0.9)

def test_compiled_networks_stay_within_the_bound(monkeypatch):
    # the least recently used network goes first
    monkeypatch.setattr(network, "_compiled_cache", {})
    bound = network._COMPILED_MAX

    def builder(gamma):
        return Network()

    first = {g: network._compiled(builder, g) for g in range(bound)}
    assert network._compiled(builder, 0) is first[0]  # now the most recent
    network._compiled(builder, bound)
    assert len(network._compiled_cache) == bound
    assert network._compiled(builder, 0) is first[0]
    assert network._compiled(builder, 1) is not first[1]
    for g in range(3 * bound):
        network._compiled(builder, g / 7)
        assert len(network._compiled_cache) <= bound

def test_compiled_networks_hold_under_threads(monkeypatch):
    # more threads than CPUs, switching often, over more configurations
    # than the bound: every call gets the network built for its arguments
    monkeypatch.setattr(network, "_compiled_cache", {})
    switch = sys.getswitchinterval()
    errors = []

    def builder(gamma):
        net = Network()
        net.gamma = gamma
        return net

    def work(offset):
        try:
            for i in range(1000):
                g = (i * 7 + offset) % (network._COMPILED_MAX + 3)
                assert network._compiled(builder, g).gamma == g
        except Exception as exc:  # reported below, with the thread's args
            errors.append((offset, exc))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(network._compiled_cache) <= network._COMPILED_MAX

@pytest.mark.parametrize("build,taps", [
    (lambda: build_robens(0.95), True),
    (lambda: build_jeong(6, PHI1, PHI2, 0.9), False),
], ids=["robens taps", "jeong"])
def test_runs_own_their_registers_under_threads(loop, build, taps):
    # 8 threads, switching often, run one network whose plan is not
    # compiled yet, so that _plan can race too, each with its own seed:
    # every result, final registers included, equals a serial run with
    # that seed on a network of its own
    seeds = range(40, 48)
    reference = build()
    serial = {seed: run(reference, 300, RngStream(seed), taps_enabled=taps)
              for seed in seeds}
    net = build()
    assert net._plan is None
    start, results, errors = threading.Barrier(len(seeds)), {}, []

    def work(seed):
        try:
            start.wait(timeout=60)
            results[seed] = [run(net, 300, RngStream(seed), taps_enabled=taps)
                             for _ in range(3)]
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for seed in seeds:
        for result in results[seed]:
            assert result == serial[seed]
            assert (splitter_registers(net, result.registers)
                    == splitter_registers(reference, serial[seed].registers))

def test_add_and_connect_after_a_run_take_effect():
    net = build_jeong(4, PHI1, PHI2)
    run(net, 300, RngStream(6))
    # splice a Hadamard onto the source wire, as build_mixed does
    splice_hadamard(net, net.source, 0)
    fresh = build_mixed(4, PHI1, PHI2)
    result, expected = run(net, 300, RngStream(6)), run(fresh, 300, RngStream(6))
    assert result == expected
    assert (splitter_registers(net, result.registers)
            == splitter_registers(fresh, expected.registers))
    net.add(Detector(9))
    assert sorted(run(net, 10, RngStream(1)).counts) == [-4, -2, 0, 2, 4, 9]
    # a connect alone: a new t2 cut point on a merge's dead port
    net = build_robens(0.95)
    spare = net.add(Detector(0))
    assert sorted(run(net, 10, RngStream(1), taps_enabled=True).t2) == [-1, 1]
    merge = next(unit for unit in net.units
                 if isinstance(unit, PolarizingBeamSplitter) and unit.out[1] is None)
    net.connect(merge, 1, spare, 0, tap=("t2", 3))
    assert sorted(run(net, 10, RngStream(1), taps_enabled=True).t2) == [-1, 1, 3]

@pytest.mark.parametrize("wire", [no_source, self_loop, live_port_unwired,
                                  unit_never_added],
                         ids=["no source", "cycle", "live port unwired",
                              "unit never added"])
def test_malformed_network_raises_on_every_run(wire):
    net = Network()
    wire(net)
    for _ in range(3):
        with pytest.raises(QwalkError):
            run(net, 10, RngStream(1))

def test_network_mended_after_a_failed_run_runs():
    net = Network()
    live_port_unwired(net)
    with pytest.raises(UnwiredPort):
        run(net, 10, RngStream(1))
    bs, right = net.units[0], net.units[3]
    net.connect(bs, 1, right, 0)
    assert sum(run(net, 10, RngStream(1)).counts.values()) == 10

def test_taps_are_non_invasive():
    net = build_robens(0.95)
    silent = run(net, 500, RngStream(31), taps_enabled=False)
    tapped = run(net, 500, RngStream(31), taps_enabled=True)
    assert silent.counts == tapped.counts
    assert silent.removed == tapped.removed
    assert silent.t2 == {}
    assert sum(sum(row.values()) for row in tapped.t2.values()) == 500

def test_tap_sites_match_polarization():
    # t2 taps sit on the first merge column.  The merge at x2 = -1 is fed
    # only on port 0 by the h output of the first splitting PBS, the one at
    # +1 only on port 1 by its v output, and that splitting PBS is fed only
    # on port 0; test_pbs_fed_pure_rails_emits_pure_polarization shows such
    # feeds make the t2 messages pure h at -1 and pure v at +1.
    net = build_robens(0.95)
    feeds: dict[int, list] = {}  # id(unit) -> [(source unit, out port, in port)]
    emitter = {}  # id(wire) -> unit whose output it is
    for unit in net.units:
        for port, wire in enumerate(unit.out):
            if wire is not None:
                feeds.setdefault(id(wire.dst), []).append((unit, port, wire.dst_port))
                emitter[id(wire)] = unit
    assert sorted(net.cut_points["t2"]) == [-1, 1]
    for x2, wire in net.cut_points["t2"].items():
        merge = emitter[id(wire)]
        assert isinstance(merge, PolarizingBeamSplitter)
        assert merge.out.index(wire) == 0
        rail = 0 if x2 < 0 else 1
        [(split, out_port, in_port)] = feeds[id(merge)]
        assert isinstance(split, PolarizingBeamSplitter)
        assert (out_port, in_port) == (rail, rail)
        assert [in_port for _u, _p, in_port in feeds[id(split)]] == [0]
    # t3 taps: each wire enters the detector of its own site
    for site, wire in net.cut_points["t3"].items():
        assert isinstance(wire.dst, Detector) and wire.dst.site == site
    assert sorted(net.cut_points["t3"]) == net.detector_sites

def test_tap_partition_resums_to_total():
    net = build_robens(0.95)
    result = run(net, 600, RngStream(99), taps_enabled=True)
    assert sorted(result.t2) == [-1, 1]
    assert all(sorted(row) == net.detector_sites for row in result.t2.values())
    merged = {x: result.t2[-1][x] + result.t2[1][x] for x in net.detector_sites}
    assert merged == result.counts

def test_removal_filter_semantics():
    net = build_robens(0.95)
    result = run(net, 500, RngStream(41), filters=[RemovalFilter("t2", +1)],
                 taps_enabled=True)
    assert 0 < result.removed < 500
    # every particle crossing t2 at +1 was absorbed: none is tallied there,
    # and the survivors all crossed at -1
    assert all(c == 0 for c in result.t2[1].values())
    assert sum(result.t2[-1].values()) + result.removed == 500
    assert result.t2[-1] == result.counts

def test_unknown_filter_rejected():
    net = build_robens(0.95)
    with pytest.raises(ValueError):
        run(net, 10, RngStream(1), filters=[RemovalFilter("t2", 3)])
    jeong = build_jeong(2, PHI1, PHI2)
    with pytest.raises(ValueError):
        run(jeong, 10, RngStream(1), filters=[RemovalFilter("t2", 1)])

def test_particle_count_validated():
    net = build_jeong(1, PHI1, PHI2)
    with pytest.raises(ValueError):
        run(net, 0, RngStream(1))

@pytest.mark.parametrize("n", [2 ** 63, 2 ** 64 + 5])
def test_particle_count_above_the_kernel_bound_rejected(n):
    # the kernel counts particles in a long long, which ctypes would fill
    # with n modulo 2**64 (5 particles for 2**64 + 5); the Python loop
    # would not end.  run() rejects n before it picks a loop
    with pytest.raises(ValueError, match=rf"^n_particles must be in "
                                         rf"1\.\.{2 ** 63 - 1}, got {n}$"):
        run(build_jeong(2, PHI1, PHI2), n, RngStream(1))

@pytest.mark.parametrize("n", [1.5, 2.0, True, "3", None])
def test_particle_count_must_be_an_int(loop, n):
    # a bool or a float of integral value too, and with the same error on
    # both loops
    with pytest.raises(TypeError, match=f"^n_particles must be an int, "
                                        f"got {type(n).__name__}$"):
        run(build_jeong(2, PHI1, PHI2), n, RngStream(1))

@pytest.mark.parametrize("rng", [5, 5.0, None, "RngStream(5)"])
def test_stream_must_be_an_rng_stream(loop, rng):
    # an int gave "'int' object has no attribute 'derive'": the kernel
    # takes only a plain RngStream, so it fell back to the Python loop
    with pytest.raises(TypeError, match=f"^rng must be an RngStream, "
                                        f"got {type(rng).__name__}$"):
        run(build_jeong(2, PHI1, PHI2), 10, rng)

@pytest.mark.parametrize("removal", [("t2", 1), "t2", None])
def test_filters_must_be_removal_filters(loop, removal):
    # a plain tuple gave an AttributeError on .label
    with pytest.raises(TypeError, match=f"^filters must hold RemovalFilter "
                                        f"values, got {type(removal).__name__}$"):
        run(build_robens(0.95), 10, RngStream(1), filters=[removal])

def test_exact_cancellation_names_the_unit_and_the_particle(loop, capsys):
    # at gamma 0.5 with real phases a splitter's registers can cancel
    # exactly (y <- y/2 + z/2 with z = -y); the model routes no particle
    # then, and both loops stop the run at the same particle
    argv = ["jeong", "--steps", "7", "--phi1", "0", "--phi2", "0", "--gamma",
            "0.5", "--particles", "3000", "--seed", "5"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "qwalk: run stopped: routing amplitudes vanished at "
        "BeamSplitter 36 on particle 935 of 3000 (p0=0.0, p1=0.0); these "
        "parameters allow the splitter's registers to cancel exactly\n")

def test_detector_parity_matches_depth():
    for levels in (3, 4):
        net = build_jeong(levels, PHI1, PHI2)
        result = run(net, 300, RngStream(levels))
        for site, count in result.counts.items():
            if count:
                assert (site + levels) % 2 == 0


# --- statistical behaviour (moderate N; the acceptance suite runs the full size)

def test_mesh_walk_matches_theory_at_moderate_size():
    net = build_jeong(3, PHI1, PHI2, 0.98)
    result = run(net, 30_000, RngStream(123))
    freq = {x: c / 30_000 for x, c in result.counts.items()}
    assert total_variation(freq, jeong_evolve(3, PHI1, PHI2)[2]) < 0.02

def test_memoryless_units_give_classical_walk():
    net = build_jeong(4, PHI1, PHI2, 0.0)
    result = run(net, 30_000, RngStream(7))
    freq = {x: c / 30_000 for x, c in result.counts.items()}
    srw = srw_distribution(4)
    assert all(abs(freq[x] - srw[x]) < 0.02 for x in srw)

def test_polarized_walk_is_left_heavy():
    net = build_robens(0.95)
    result = run(net, 30_000, RngStream(55))
    freq = {x: c / 30_000 for x, c in result.counts.items()}
    assert abs(freq[-2] - 10 / 16) < 0.02
    assert abs(freq[2] - 2 / 16) < 0.02

def test_polarized_walk_matches_theory_at_full_size():
    from qwalk.theory import StateVector, UP, hadamard_walk

    net = build_robens(0.95)
    result = run(net, 100_000, RngStream(56))
    freq = {x: c / 100_000 for x, c in result.counts.items()}
    _, exact = hadamard_walk(4, StateVector.basis(0, UP))
    assert total_variation(freq, exact) <= 0.02

def test_kept_fraction_near_half_under_removal():
    net = build_robens(0.95)
    result = run(net, 20_000, RngStream(17), filters=[RemovalFilter("t2", -1)])
    assert abs(result.removed / 20_000 - 0.5) < 0.02

def test_filter_complementarity_accounts_for_both_runs():
    net = build_robens(0.95)
    minus = run(net, 10_000, RngStream(61), filters=[RemovalFilter("t2", +1)])
    plus = run(net, 10_000, RngStream(62), filters=[RemovalFilter("t2", -1)])
    accounted = (sum(minus.counts.values()) + minus.removed
                 + sum(plus.counts.values()) + plus.removed)
    assert accounted == 20_000

def test_removal_and_observation_give_different_branch_statistics():
    # negative measurement at t2 vs merely observing t2 in an untouched run:
    # removal changes how the downstream registers adapt, so the two
    # protocols disagree at the distribution level (jointly over both
    # branches, and for the branch-summed totals)
    n = 100_000
    net = build_robens(0.95)
    kept_minus = run(net, n, RngStream(71), filters=[RemovalFilter("t2", +1)])
    kept_plus = run(net, n, RngStream(73), filters=[RemovalFilter("t2", -1)])
    observed = run(net, n, RngStream(72), taps_enabled=True)
    tagged = observed.t2
    joint_invasive = {(x2, x): c / n
                      for x2, counts in ((-1, kept_minus.counts), (1, kept_plus.counts))
                      for x, c in counts.items()}
    joint_observed = {(x2, x): c / n
                      for x2, counts in tagged.items() for x, c in counts.items()}
    assert total_variation(joint_invasive, joint_observed) > 0.1
    summed_invasive = {x: (kept_minus.counts[x] + kept_plus.counts[x]) / n
                       for x in kept_minus.counts}
    unconditioned = {x: c / n for x, c in observed.counts.items()}
    assert total_variation(summed_invasive, unconditioned) > 0.1
