"""Network topologies and the one-particle-at-a-time event loop.

Two builders are provided.  ``build_jeong`` wires the triangular mesh of
50:50 beam splitters and phase shifters in which the walk position is path
encoded: the first output port of every splitter heads one lattice site to
the left, the second one site to the right, and interference happens where
two rails meet at the next splitter.  ``build_robens`` wires the four-step
polarized-photon network in which the position shift is polarization encoded:
each jump is a Hadamard on every occupied rail followed by a column of
polarizing beam splitters that send the h component of site x to x-1 and the
v component to x+1.  Every jump needs one splitting PBS per occupied site and
one merging PBS per target site; the merge's second output is a structural
dark port that carries zero amplitude (registers that never receive a
component stay exactly zero), so particle conservation is exact.  Redundant
single-input PBSs at the edges are instantiated rather than optimized away.

The polarized network carries three labeled cut points: t1 on the wire
leaving the source, t2 on the two wires leaving the first merge column
(sites -1 and +1), and t3 on the wires entering the detectors.  With taps
enabled the loop notes the t2 site each particle crosses and, at
detection, tallies it into a (t2 site x detector site) table; it touches
nothing else.  A removal filter absorbs every particle crossing one
annotated wire, which is the ideal negative measurement used by the
Leggett-Garg analysis.

A run is strictly sequential: a particle finishes (detector or filter)
before the next one is emitted, and the adaptive registers persist across
all particles of the run.  ``run`` reseeds every adaptive unit from the
supplied stream and resets its registers, so identical seeds reproduce
bit-identical counts and tables.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import (
    BeamSplitter,
    Detector,
    HadamardUnit,
    PhaseShifter,
    PolarizingBeamSplitter,
    RngStream,
    Source,
    SOURCE_MESSAGE,
)
from .errors import InvalidLevels, QwalkError, UnwiredPort

MAX_LEVELS = 12  # unit count grows as levels^2; desk-scale bound


class RemovalFilter(NamedTuple):
    """Absorb every particle crossing the cut-point wire at ``site``.

    ``site`` names the rail that is absorbed: RemovalFilter("t2", +1) removes
    particles found at x = +1, keeping the x = -1 branch untouched.
    """

    label: str
    site: int


class RunResult(NamedTuple):
    counts: dict[int, int]
    #: t2[x2][x] = particles that crossed t2 at x2 and were detected at x;
    #: every detector site for both t2 sites when taps are on, else empty
    t2: dict[int, dict[int, int]]
    removed: int


class Wire:
    """Directed connection into one input port, optionally carrying a cut-point tag."""

    __slots__ = ("dst", "dst_port", "tap_label", "tap_site", "absorb")

    def __init__(self, dst, dst_port: int, tap=None):
        self.dst = dst
        self.dst_port = dst_port
        self.tap_label, self.tap_site = tap if tap is not None else (None, None)
        self.absorb = False  # set per run by active removal filters


class Network:
    """Directed acyclic graph of processing units owned by one run at a time."""

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.units: list = []
        self.wires: list[Wire] = []
        self.source: Source | None = None
        self.detector_sites: list[int] = []
        #: label -> {site: wire} for every annotated cut point
        self.cut_points: dict[str, dict[int, Wire]] = {}
        #: output ports that legitimately carry zero amplitude
        self.dark_ports: set[tuple[int, int]] = set()

    def add(self, unit):
        self.units.append(unit)
        if isinstance(unit, Source):
            self.source = unit
        return unit

    def connect(self, src, src_port: int, dst, dst_port: int, tap=None) -> Wire:
        if src.out[src_port] is not None:
            raise QwalkError("output port already wired")
        wire = Wire(dst, dst_port, tap)
        src.out[src_port] = wire
        self.wires.append(wire)
        if tap is not None:
            label, site = tap
            self.cut_points.setdefault(label, {})[site] = wire
        return wire

    def mark_dark(self, unit, port: int) -> None:
        self.dark_ports.add((id(unit), port))

    def adaptive_units(self) -> list:
        return [u for u in self.units if u.is_adaptive]

    def validate(self) -> None:
        """Check that every output port is wired or declared dark, and no cycles."""
        if self.source is None:
            raise QwalkError("network has no source")
        for unit in self.units:
            for port in range(unit.n_outputs):
                if unit.out[port] is None and (id(unit), port) not in self.dark_ports:
                    raise UnwiredPort(
                        f"{type(unit).__name__} output port {port} is dangling")
        # cycle check: iterative DFS over the wiring graph
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {id(u): WHITE for u in self.units}
        for start in self.units:
            if color[id(start)] != WHITE:
                continue
            stack = [(start, iter(self._successors(start)))]
            color[id(start)] = GRAY
            while stack:
                node, it = stack[-1]
                for succ in it:
                    c = color[id(succ)]
                    if c == GRAY:
                        raise QwalkError("wiring graph contains a cycle")
                    if c == WHITE:
                        color[id(succ)] = GRAY
                        stack.append((succ, iter(self._successors(succ))))
                        break
                else:
                    color[id(node)] = BLACK
                    stack.pop()

    def _successors(self, unit) -> list:
        return [w.dst for w in unit.out if w is not None]

    def reset(self, rng: RngStream) -> None:
        """Fresh registers and per-unit streams derived from (seed, unit index)."""
        for index, unit in enumerate(self.units):
            if unit.is_adaptive:
                unit.reset(rng.derive(index))


def build_jeong(levels: int, phi1: float, phi2: float, gamma: float = 0.95) -> Network:
    """Triangular mesh walk: bare splitter at the top, dressed splitters below.

    Level 1 holds a single beam splitter at x = 0 fed by the source on its
    first (up) port.  Each level l = 2..levels holds, at every occupied site,
    the triple phase-shifter(phi1, on the up input rail) -> beam splitter ->
    phase-shifter(phi2, on the down output rail).  The up output of the
    splitter at site x feeds site x-1 on the next level, the down output
    feeds x+1; after the last level both rails terminate in detectors at
    x in {-levels, -levels+2, ..., +levels}.
    """
    if not 1 <= levels <= MAX_LEVELS:
        raise InvalidLevels(f"levels must be in 1..{MAX_LEVELS}, got {levels}")
    if not (math.isfinite(phi1) and math.isfinite(phi2)):
        raise ValueError(f"phases must be finite, got phi1={phi1}, phi2={phi2}")
    net = Network(gamma)
    source = net.add(Source())
    top = net.add(BeamSplitter(gamma))
    net.connect(source, 0, top, 0)
    # rails[target_site][kind] = (unit, out_port); kind "up" moves left, "dn" right
    rails: dict[int, dict[str, tuple]] = {
        -1: {"up": (top, 0)},
        +1: {"dn": (top, 1)},
    }
    for level in range(2, levels + 1):
        nxt: dict[int, dict[str, tuple]] = {}
        for x in range(-level + 1, level, 2):
            feeds = rails.get(x, {})
            p1 = net.add(PhaseShifter(phi1))
            bs = net.add(BeamSplitter(gamma))
            p2 = net.add(PhaseShifter(phi2))
            net.connect(p1, 0, bs, 0)
            net.connect(bs, 1, p2, 0)
            if "up" in feeds:
                src, port = feeds["up"]
                net.connect(src, port, p1, 0)
            if "dn" in feeds:
                src, port = feeds["dn"]
                net.connect(src, port, bs, 1)
            nxt.setdefault(x - 1, {})["up"] = (bs, 0)
            nxt.setdefault(x + 1, {})["dn"] = (p2, 0)
        rails = nxt
    for site in sorted(rails):
        for _kind, (src, port) in sorted(rails[site].items()):
            det = net.add(Detector(site))
            net.connect(src, port, det, 0)
    net.detector_sites = sorted(rails)
    net.validate()
    return net


def build_robens(gamma: float = 0.95) -> Network:
    """Four-jump polarized walk with cut points t1, t2, t3.

    Each jump applies a Hadamard to every occupied rail, splits it on a PBS
    (h exits toward x-1, v toward x+1), and merges the rails arriving at each
    target site on another PBS whose first output carries the recombined
    state.  Detectors sit at x in {-4, -2, 0, 2, 4}.
    """
    net = Network(gamma)
    source = net.add(Source())
    # pending[site] = (unit, out_port, tap annotation for the next wire)
    pending: dict[int, tuple] = {0: (source, 0, ("t1", 0))}
    for jump in range(1, 5):
        splits: dict[int, PolarizingBeamSplitter] = {}
        for x in sorted(pending):
            src, port, tap = pending[x]
            had = net.add(HadamardUnit())
            net.connect(src, port, had, 0, tap=tap)
            pbs = net.add(PolarizingBeamSplitter(gamma))
            net.connect(had, 0, pbs, 0)
            splits[x] = pbs
        targets = sorted({x - 1 for x in splits} | {x + 1 for x in splits})
        nxt: dict[int, tuple] = {}
        for x2 in targets:
            merge = net.add(PolarizingBeamSplitter(gamma))
            if x2 + 1 in splits:
                net.connect(splits[x2 + 1], 0, merge, 0)  # h rail moving left
            if x2 - 1 in splits:
                net.connect(splits[x2 - 1], 1, merge, 1)  # v rail moving right
            net.mark_dark(merge, 1)
            tap = None
            if jump == 1:
                tap = ("t2", x2)
            elif jump == 4:
                tap = ("t3", x2)
            nxt[x2] = (merge, 0, tap)
        pending = nxt
    for x2 in sorted(pending):
        src, port, tap = pending[x2]
        det = net.add(Detector(x2))
        net.connect(src, port, det, 0, tap=tap)
    net.detector_sites = sorted(pending)
    net.validate()
    return net


def run(net: Network, n_particles: int, rng: RngStream,
        filters: Iterable[RemovalFilter] = (),
        taps_enabled: bool = False) -> RunResult:
    """Send ``n_particles`` through the network one at a time.

    Adaptive registers are reset at the start and persist across all
    particles of the run.  Returns the detector counts, the t2 table (empty
    unless ``taps_enabled``; a network without a t2 cut point cannot be
    tapped), and the removed tally.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    filter_wires = []
    for f in filters:
        sites = net.cut_points.get(f.label)
        if sites is None or f.site not in sites:
            raise ValueError(f"no cut point {f.label!r} at site {f.site}")
        filter_wires.append(sites[f.site])
    t2: dict[int, dict[int, int]] = {}
    if taps_enabled:
        if "t2" not in net.cut_points:
            raise ValueError("taps need a t2 cut point; this network has none")
        t2 = {x2: {site: 0 for site in net.detector_sites}
              for x2 in sorted(net.cut_points["t2"])}

    net.reset(rng)
    counts = {site: 0 for site in net.detector_sites}
    removed = 0
    for wire in filter_wires:
        wire.absorb = True
    try:
        source_wire = net.source.out[0]
        for _ in range(n_particles):
            wire = source_wire
            m = SOURCE_MESSAGE
            x2 = None
            while True:
                label = wire.tap_label
                if label is not None:
                    if wire.absorb:
                        removed += 1
                        break
                    if label == "t2":
                        x2 = wire.tap_site
                unit = wire.dst
                if unit.is_detector:
                    site = unit.site
                    counts[site] += 1
                    if taps_enabled:
                        t2[x2][site] += 1
                    break
                port, m = unit.interact(wire.dst_port, m)
                wire = unit.out[port]
                if wire is None:
                    raise UnwiredPort(
                        f"particle reached dangling port {port} of "
                        f"{type(unit).__name__}")
    finally:
        for wire in filter_wires:
            wire.absorb = False
    if sum(counts.values()) + removed != n_particles:
        raise QwalkError("conservation breach: emitted != detected + removed")
    return RunResult(counts, t2, removed)
