"""Topology builders, the sequential event loop, taps, and removal filters."""
import math
import random

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
    phase_shift,
)
from qwalk.cli import main
from qwalk.errors import InvalidLevels, QwalkError, UnwiredPort
from qwalk.network import (
    _BS,
    _BS1,
    _MERGE,
    _PBS,
    _SPLIT,
    Network,
    RemovalFilter,
    _compile,
    build_jeong,
    build_robens,
    run,
)
from qwalk.theory import jeong_evolve, srw_distribution, total_variation

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
    # target site (2+3+4+5); merges keep their dark second output
    assert len(pbs) == (1 + 2 + 3 + 4) + (2 + 3 + 4 + 5)
    assert len(net.dark_ports) == 2 + 3 + 4 + 5
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
        net.validate()  # bs output port 1 dangles

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

def registers(state):
    return (state.w0, state.w1, state.y0h, state.y0v, state.y1h, state.y1v)

def build_mixed(levels, phi1, phi2, gamma=0.95):
    """Jeong mesh with a HadamardUnit spliced onto the source wire.

    Every splitter then sees messages with both an h and a v half.
    """
    net = build_jeong(levels, phi1, phi2, gamma)
    wire = net.source.out[0]
    net.source.out[0] = None
    had = net.add(HadamardUnit())
    net.connect(net.source, 0, had, 0)
    net.connect(had, 0, wire.dst, wire.dst_port)
    net.validate()
    return net

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
    net.detector_sites = [-1, 1]
    net.validate()
    return net

def adaptive_kinds(net):
    """Kind code of each adaptive unit, keyed by unit identity."""
    kind = _compile(net, RngStream(1), set())[0]
    return {id(unit): kind[j] for j, unit in enumerate(net.units)
            if isinstance(unit, BeamSplitter)}

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

finite_phases = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)

@given(st.one_of(
           st.tuples(st.just("jeong"), st.integers(1, 6), finite_phases,
                     finite_phases, st.just(None), st.just(False)),
           st.tuples(st.just("mixed"), st.integers(1, 4), finite_phases,
                     finite_phases, st.just(None), st.just(False)),
           st.tuples(st.just("robens"), st.just(0), st.just(0.0), st.just(0.0),
                     st.sampled_from([None, -1, +1]), st.booleans()),
           st.tuples(st.just("rejoined"), st.just(0), st.just(0.0), st.just(0.0),
                     st.just(None), st.just(False))),
       st.floats(0.0, 0.99), st.integers(0, 2 ** 64 - 1), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_compiled_loop_matches_reference_stepper(shape, gamma, seed, n):
    # the compiled loop must reproduce, bit for bit, the walk that calls the
    # core functions unit by unit: counts, t2 table, removed tally and every
    # final register, and every unit draws from its stream once per arrival
    # (a merge too, although its port is fixed); the shapes reach every
    # adaptive kind (see test_only_polarization_free_networks_get_scalar_splitters)
    name, levels, phi1, phi2, removed_site, taps = shape
    if name == "jeong":
        net = build_jeong(levels, phi1, phi2, gamma)
    elif name == "mixed":
        net = build_mixed(levels, phi1, phi2, gamma)
    elif name == "rejoined":
        net = build_rejoined(gamma)
    else:
        net = build_robens(gamma)
    filters = [] if removed_site is None else [RemovalFilter("t2", removed_site)]
    reference, compiled = CountingRng(seed), CountingRng(seed)
    counts, t2, removed, states = reference_run(net, n, reference, filters, taps)
    result = run(net, n, compiled, filters=filters, taps_enabled=taps)
    assert result.counts == counts
    assert result.t2 == t2
    assert result.removed == removed
    assert compiled.draws == reference.draws
    for j, state in states.items():
        assert registers(net.units[j].state) == registers(state)

def test_only_polarization_free_networks_get_scalar_splitters():
    # the mesh routes a scalar message; a Hadamard on its source wire puts
    # it back on the two-component branch.  The polarized walk's PBSs split
    # (nothing reaches in-port 1) or merge (out-port 1 is dead); a PBS fed
    # on both in-ports and emitting on both out-ports keeps the general one
    def kinds(net):
        return set(adaptive_kinds(net).values())

    assert kinds(build_jeong(4, PHI1, PHI2)) == {_BS1}
    assert kinds(build_mixed(4, PHI1, PHI2)) == {_BS}
    assert kinds(build_robens(0.95)) == {_SPLIT, _MERGE}
    assert kinds(build_rejoined()) == {_SPLIT, _PBS}

@pytest.mark.parametrize("build", [lambda: build_jeong(4, PHI1, PHI2),
                                   lambda: build_mixed(4, PHI1, PHI2),
                                   build_robens, build_rejoined],
                         ids=["jeong", "mixed", "robens", "rejoined"])
def test_unit_kinds_do_not_depend_on_unit_order(build):
    # the liveness pass follows the wiring, not the order of net.units
    net = build()
    expected = adaptive_kinds(net)
    for reorder in (lambda units: units.reverse(),
                    lambda units: random.Random(7).shuffle(units)):
        reorder(net.units)
        assert adaptive_kinds(net) == expected

def test_particle_at_dark_port_raises():
    # a dark port declared on a port that does carry amplitude: the first
    # particle routed there stops the run instead of vanishing
    net = Network()
    source = net.add(Source())
    bs = net.add(BeamSplitter(0.9))
    net.connect(source, 0, bs, 0)
    net.connect(bs, 0, net.add(Detector(-1)), 0)
    net.mark_dark(bs, 1)
    net.detector_sites = [-1]
    net.validate()
    with pytest.raises(UnwiredPort):
        run(net, 200, RngStream(1))

def test_two_stateless_units_on_one_edge_are_rejected():
    net = Network()
    source = net.add(Source())
    first, second = net.add(PhaseShifter(0.1)), net.add(HadamardUnit())
    net.connect(source, 0, first, 0)
    net.connect(first, 0, second, 0)
    net.connect(second, 0, net.add(Detector(0)), 0)
    net.detector_sites = [0]
    with pytest.raises(QwalkError):
        run(net, 1, RngStream(1))

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

REGISTERS = ("w0", "w1", "y0h", "y0v", "y1h", "y1v")

@pytest.mark.parametrize("register,value,shown", [("w1", 0.7, "w0=0.55, w1=0.63,"),
                                                  ("y1h", 3.0, "|y1|=3.0")])
def test_corrupted_registers_stop_the_run(monkeypatch, capsys, register, value,
                                          shown):
    # unit 1 of the one-level mesh is its splitter; one particle enters it on
    # port 0, which leaves w0 + w1 = 1.18 and |y1| = 3.0
    def corrupted(net, rng, absorbed):
        tables = _compile(net, rng, absorbed)
        tables[8][REGISTERS.index(register)][1] = value
        return tables

    monkeypatch.setattr("qwalk.network._compile", corrupted)
    with pytest.raises(QwalkError,
                       match=r"^register invariant breach at BeamSplitter 1: ") as exc:
        run(build_jeong(1, PHI1, PHI2, 0.9), 1, RngStream(1))
    assert shown in str(exc.value)
    assert main(["jeong", "--steps", "1", "--particles", "1"]) == 3
    assert "register invariant breach" in capsys.readouterr().err

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
    # so no register state can leak across runs
    net = build_jeong(3, PHI1, PHI2)
    first = run(net, 200, RngStream(3))
    second = run(net, 200, RngStream(3))
    assert first.counts == second.counts

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
