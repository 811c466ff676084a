"""Event-level building blocks: messages, adaptive registers, and processing units.

A particle is a single event carrier.  It holds a two-component complex
message (a Jones vector: horizontal and vertical amplitude) and moves through
a network of processing units one unit at a time.  Stateless units (phase
shifters, polarization Hadamards) transform the message.  Adaptive units
(beam splitters, polarizing beam splitters) keep per-port registers — two
relative-frequency weights and two averaged messages — that learn from the
stream of arriving particles; the registers, not the instantaneous message,
decide through which port a particle leaves.  This local memory is the only
channel by which successive particles influence each other, and it is what
makes the detector statistics converge to interference patterns.

Register update for an arrival on port k with message m (learning rate g):

    w_k   <- g*w_k + (1-g)        w_other <- g*w_other
    y_k   <- g*y_k + (1-g)*m      y_other unchanged

Routing builds the length-4 vector v = (sqrt(w0)*y0, sqrt(w1)*y1), applies
the unit's 4x4 unitary in (port x polarization) ordering, and emits on port k
with probability |z_k|^2 / (|z_0|^2 + |z_1|^2), carrying z_k normalized.
With g = 0 the registers are memoryless and every unit behaves like a fair
classical splitter; g near 1 reproduces wave statistics.

Registers start at w = (1/2, 1/2) and y = 0.  Because the update precedes
routing, the first arrival already gives a nonzero routing vector, and a
register component that never receives amplitude stays exactly zero — so
ports that carry no amplitude in the wave picture have routing probability
exactly 0.0 and particles are conserved exactly.
"""
from __future__ import annotations

import hashlib
import math
import random
from typing import NamedTuple

from .errors import DegenerateAmplitude

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MASK64 = (1 << 64) - 1


class Message(NamedTuple):
    """Unit-norm two-component complex payload carried by a particle."""

    c_h: complex
    c_v: complex

    def norm(self) -> float:
        return math.sqrt(
            self.c_h.real ** 2 + self.c_h.imag ** 2
            + self.c_v.real ** 2 + self.c_v.imag ** 2
        )

    def normalized(self) -> "Message":
        n = self.norm()
        return Message(self.c_h / n, self.c_v / n)


#: message emitted by every source: h-polarized, no global phase
SOURCE_MESSAGE = Message(1.0 + 0.0j, 0.0 + 0.0j)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent 64-bit child seed from a parent seed and indices.

    blake2b keyed on the parent seed plus the index path; deterministic and
    platform independent, so replicate and per-unit streams never collide.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update((seed & _MASK64).to_bytes(8, "little"))
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Seeded uniform-deviate stream with deterministic child derivation.

    Identical seeds give identical sequences.  ``derive(i)`` returns a new
    independent stream; the derivation is a hash of (seed, i), so streams for
    distinct replicates or units never share state.
    """

    __slots__ = ("seed", "_gen", "random")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = random.Random(self.seed)
        self.random = self._gen.random  # bound method, hot path

    def derive(self, *indices: int) -> "RngStream":
        return RngStream(derive_seed(self.seed, *indices))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


class AdaptiveState:
    """Per-unit registers: two arrival-frequency weights, two averaged messages.

    Invariants kept by ``adaptive_update``: w0 + w1 == 1, 0 <= w <= 1, and
    each averaged message has norm <= 1 (convex average of unit vectors).
    ``network.run`` checks them, to rounding, at the end of every run.
    """

    __slots__ = ("w0", "w1", "y0h", "y0v", "y1h", "y1v", "gamma")

    def __init__(self, gamma: float):
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"learning rate must be in [0, 1), got {gamma}")
        self.gamma = gamma
        self.w0 = 0.5
        self.w1 = 0.5
        self.y0h = 0.0 + 0.0j
        self.y0v = 0.0 + 0.0j
        self.y1h = 0.0 + 0.0j
        self.y1v = 0.0 + 0.0j

    def __repr__(self) -> str:
        return (f"AdaptiveState(w=({self.w0:.4f},{self.w1:.4f}), "
                f"y0=({self.y0h:.4f},{self.y0v:.4f}), "
                f"y1=({self.y1h:.4f},{self.y1v:.4f}), gamma={self.gamma})")


def adaptive_update(state: AdaptiveState, port: int, m: Message) -> AdaptiveState:
    """Fold an arrival on ``port`` into the registers; returns the same state.

    Exponentially weighted averaging with rate (1 - gamma): the weight of the
    arrival port moves toward 1, the other toward 0, and the arrival port's
    averaged message moves toward m.  gamma = 0 makes the unit memoryless.
    """
    g = state.gamma
    c = 1.0 - g
    if port == 0:
        state.w0 = g * state.w0 + c
        state.w1 = g * state.w1
        state.y0h = g * state.y0h + c * m.c_h
        state.y0v = g * state.y0v + c * m.c_v
    elif port == 1:
        state.w1 = g * state.w1 + c
        state.w0 = g * state.w0
        state.y1h = g * state.y1h + c * m.c_h
        state.y1v = g * state.y1v + c * m.c_v
    else:
        raise ValueError(f"port must be 0 or 1, got {port}")
    return state


def bs_route(state: AdaptiveState, in_port: int, m: Message, u: float) -> tuple[int, Message]:
    """Route a particle through a 50:50 beam splitter after the register update.

    The output port mixes the two input ports: z = (M_bs tensor I2) v with
    M_bs = [[1, i], [i, 1]]/sqrt(2), v = (sqrt(w0)*y0, sqrt(w1)*y1).  Emits on
    port 0 iff u < p0/(p0+p1) where p_k = |z_k|^2; the emitted message is z_k
    normalized.  ``in_port`` and ``m`` were already absorbed into the state by
    adaptive_update and do not enter the routing decision.
    """
    a = math.sqrt(state.w0)
    b = math.sqrt(state.w1)
    v0h = a * state.y0h
    v0v = a * state.y0v
    v1h = b * state.y1h
    v1v = b * state.y1v
    z0h = (v0h + 1j * v1h) * _INV_SQRT2
    z0v = (v0v + 1j * v1v) * _INV_SQRT2
    z1h = (1j * v0h + v1h) * _INV_SQRT2
    z1v = (1j * v0v + v1v) * _INV_SQRT2
    return _pick_port(z0h, z0v, z1h, z1v, u)


def pbs_route(state: AdaptiveState, in_port: int, m: Message, u: float) -> tuple[int, Message]:
    """Route through a polarizing beam splitter: h transmits, v reflects with phase i.

    Same pipeline as ``bs_route`` with the unitary
    z0 = (v0h, i*v1v), z1 = (v1h, i*v0v).
    """
    a = math.sqrt(state.w0)
    b = math.sqrt(state.w1)
    z0h = a * state.y0h
    z0v = 1j * (b * state.y1v)
    z1h = b * state.y1h
    z1v = 1j * (a * state.y0v)
    return _pick_port(z0h, z0v, z1h, z1v, u)


def _pick_port(z0h: complex, z0v: complex, z1h: complex, z1v: complex,
               u: float) -> tuple[int, Message]:
    p0 = z0h.real ** 2 + z0h.imag ** 2 + z0v.real ** 2 + z0v.imag ** 2
    p1 = z1h.real ** 2 + z1h.imag ** 2 + z1v.real ** 2 + z1v.imag ** 2
    total = p0 + p1
    if not total >= 1e-30:  # also catches a NaN total
        raise _vanished(p0, p1)
    if u < p0 / total:
        inv = 1.0 / math.sqrt(p0)
        return 0, Message(z0h * inv, z0v * inv)
    inv = 1.0 / math.sqrt(p1)
    return 1, Message(z1h * inv, z1v * inv)


def _vanished(p0: float, p1: float) -> DegenerateAmplitude:
    return DegenerateAmplitude(
        f"routing amplitudes vanished (p0={p0!r}, p1={p1!r})")


def phase_shift(phi: float, m: Message) -> Message:
    """Multiply the whole message by e^{i phi} (shifter sitting on one rail)."""
    f = complex(math.cos(phi), math.sin(phi))
    return Message(f * m.c_h, f * m.c_v)


def hadamard_apply(m: Message) -> Message:
    """Apply the polarization Hadamard: (h, v) -> ((h+v), (h-v))/sqrt(2)."""
    return Message((m.c_h + m.c_v) * _INV_SQRT2, (m.c_h - m.c_v) * _INV_SQRT2)


# ---------------------------------------------------------------------------
# Processing units.  Units describe the graph: ``out`` holds one wire per
# output port, filled by the owning network, ``n_inputs`` counts the input
# ports, and ``network.run`` compiles the graph into flat tables
# whose event loop applies the functions above inline.  ``state`` holds an
# adaptive unit's registers as they stood at the end of the last run.


class Source:
    """Emits h-polarized particles, one at a time.  0 inputs, 1 output."""

    __slots__ = ("out",)
    n_inputs = 0

    def __init__(self):
        self.out = [None]


class PhaseShifter:
    """Multiplies the passing message by e^{i phi}.  1 input, 1 output."""

    __slots__ = ("phi", "factor", "out")
    n_inputs = 1

    def __init__(self, phi: float):
        self.phi = phi
        self.factor = complex(math.cos(phi), math.sin(phi))
        self.out = [None]


class HadamardUnit:
    """Applies the polarization Hadamard.  1 input, 1 output."""

    __slots__ = ("out",)
    n_inputs = 1

    def __init__(self):
        self.out = [None]


class BeamSplitter:
    """Adaptive 50:50 beam splitter.  2 inputs, 2 outputs."""

    __slots__ = ("gamma", "state", "out")
    n_inputs = 2

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.state = AdaptiveState(gamma)
        self.out = [None, None]


class PolarizingBeamSplitter(BeamSplitter):
    """Adaptive polarizing beam splitter: h transmits, v reflects with phase i."""

    __slots__ = ()


class Detector:
    """Counts and removes particles arriving at one lattice site.  1 input."""

    __slots__ = ("site", "out")
    n_inputs = 1

    def __init__(self, site: int):
        self.site = site
        self.out = []
