"""Exact quantum-theoretical reference for both walk models.

State vectors live on an integer lattice with a two-state internal degree of
freedom (spin up/down, equivalently h/v polarization).  One walk step is a
coin operation on the internal state followed by the shift S that moves the
up component from x to x-1 and the down component from x to x+1.  Everything
here is a pure function over a dense map of occupied (site, spin) amplitudes;
at desk scale the state never exceeds a few dozen amplitudes, so no sparse
machinery is involved.

These functions are the ground truth that the event-by-event simulation is
measured against: ``hadamard_walk`` for the polarized-photon network,
``jeong_evolve`` for the beam-splitter mesh, ``table1_closed_form`` for the
first five steps of the mesh in closed form, and ``srw_distribution`` for the
classical binomial baseline.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .core import _INV_SQRT2, _check_int, _check_phases
from .errors import UnsupportedStep

UP = 0    # moves to x-1 under the shift; maps to h polarization
DOWN = 1  # moves to x+1; maps to v polarization
#: deepest mesh ``jeong_evolve`` evaluates; the simulator stops at network.MAX_LEVELS
MAX_ORACLE_STEPS = 20


class StateVector(NamedTuple):
    """Map (site, spin) -> complex amplitude over the occupied lattice points."""

    amplitudes: dict[tuple[int, int], complex]

    @classmethod
    def basis(cls, x: int, spin: int, amplitude: complex = 1.0 + 0.0j) -> "StateVector":
        return cls({(x, spin): complex(amplitude)})

    def site_probabilities(self) -> dict[int, float]:
        """Per-site probability, summed over spin."""
        probs: dict[int, float] = {}
        for (x, _s), a in self.amplitudes.items():
            probs[x] = probs.get(x, 0.0) + (a * a.conjugate()).real
        return dict(sorted(probs.items()))


def _occupied_sites(amps: dict[tuple[int, int], complex]) -> list[int]:
    return sorted({x for (x, _s) in amps})


def _shift(amps: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    out: dict[tuple[int, int], complex] = {}
    for (x, s), a in amps.items():
        if s == UP:
            out[(x - 1, UP)] = a
        else:
            out[(x + 1, DOWN)] = a
    return out


def _evolve(amps: dict[tuple[int, int], complex],
            coins: list) -> Iterator[dict[tuple[int, int], complex]]:
    """Apply ``coins[i]`` at every occupied site, then the shift, for each step i.

    A coin maps the (up, down) amplitudes of one site to their new values.
    Yields the amplitudes after every step; only the current step is kept.
    """
    for coin in coins:
        mixed: dict[tuple[int, int], complex] = {}
        for x in _occupied_sites(amps):
            mixed[(x, UP)], mixed[(x, DOWN)] = coin(
                amps.get((x, UP), 0.0 + 0.0j), amps.get((x, DOWN), 0.0 + 0.0j))
        amps = _shift(mixed)
        yield amps


def _hadamard_coin(u: complex, d: complex) -> tuple[complex, complex]:
    return (u + d) * _INV_SQRT2, (u - d) * _INV_SQRT2


def _splitter_coin(u: complex, d: complex) -> tuple[complex, complex]:
    return (u + 1j * d) * _INV_SQRT2, (1j * u + d) * _INV_SQRT2


def hadamard_walk(steps: int, initial: StateVector) -> tuple[StateVector, dict[int, float]]:
    """Evolve ``initial`` by ``steps`` applications of (shift . Hadamard).

    Returns the final state and the per-site probabilities summed over spin.
    The probabilities sum to the squared norm of the initial state; fractional
    initial states (e.g. a conditioned branch with norm 1/2) are reported
    without renormalization.  ``steps`` must be an ``int`` (not a ``bool``).
    """
    _check_int("steps", steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    amps = dict(initial.amplitudes)
    for amps in _evolve(amps, [_hadamard_coin] * steps):
        pass
    state = StateVector(amps)
    return state, state.site_probabilities()


def srw_distribution(l: int) -> dict[int, float]:
    """Binomial site distribution of the classical walk: 2^-l * C(l, (x+l)/2).

    ``l``, the number of steps, must be an ``int`` (not a ``bool``) >= 1.
    """
    _check_int("steps", l)
    if l < 1:
        raise ValueError(f"steps must be >= 1, got {l}")
    scale = 2 ** l
    return {x: math.comb(l, (x + l) // 2) / scale for x in range(-l, l + 1, 2)}


def jeong_evolve(levels: int, phi1: float, phi2: float) -> list[dict[int, float]]:
    """Exact per-step probabilities for the beam-splitter mesh walk.

    Step 1 applies the bare splitter coin B = [[1, i], [i, 1]]/sqrt(2) at the
    origin; every later step applies the dressed coin P2.B.P1 (phase phi1 on
    the up component before B, phase phi2 on the down component after B) at
    each occupied site.  Each coin is followed by the shift.  Returns one
    site->probability map per step l = 1..levels; the probabilities depend on
    phi2 only, never on phi1.  ``levels`` must be an ``int`` (not a
    ``bool``), and both phases finite.
    """
    _check_int("levels", levels)
    if not 1 <= levels <= MAX_ORACLE_STEPS:
        raise ValueError(f"levels must be in 1..{MAX_ORACLE_STEPS}, got {levels}")
    _check_phases(phi1=phi1, phi2=phi2)
    e1 = complex(math.cos(phi1), math.sin(phi1))
    e2 = complex(math.cos(phi2), math.sin(phi2))

    def dressed_coin(u: complex, d: complex) -> tuple[complex, complex]:
        u = e1 * u
        return (u + 1j * d) * _INV_SQRT2, e2 * ((1j * u + d) * _INV_SQRT2)

    coins = [_splitter_coin] + [dressed_coin] * (levels - 1)
    return [StateVector(amps).site_probabilities()
            for amps in _evolve({(0, UP): 1.0 + 0.0j}, coins)]


def table1_closed_form(l: int, phi2: float) -> dict[int, float]:
    """Closed-form mesh-walk probabilities for l = 1..5 as a function of phi2.

    The first two steps coincide with the classical binomial values; from
    step three on, interference adds cos(phi2) terms around the center and
    the distributions pick up a phi2 -> phi2 + pi mirror symmetry.  ``phi2``
    must be finite.
    """
    if not 1 <= l <= 5:
        raise UnsupportedStep(f"closed form tabulated for steps 1..5, got {l}")
    _check_phases(phi2=phi2)
    c = math.cos(phi2)
    if l == 1:
        return {-1: 1 / 2, 1: 1 / 2}
    if l == 2:
        return {-2: 1 / 4, 0: 2 / 4, 2: 1 / 4}
    if l == 3:
        return {-3: 1 / 8, -1: (3 + 2 * c) / 8, 1: (3 - 2 * c) / 8, 3: 1 / 8}
    if l == 4:
        return {
            -4: 1 / 16,
            -2: (4 + 2 + 4 * c) / 16,
            0: (6 - 4) / 16,
            2: (4 + 2 - 4 * c) / 16,
            4: 1 / 16,
        }
    return {
        -5: 1 / 32,
        -3: (5 + 6 + 6 * c) / 32,
        -1: (10 - 6) / 32,
        1: (10 - 6) / 32,
        3: (5 + 6 - 6 * c) / 32,
        5: 1 / 32,
    }


def total_variation(p: dict, q: dict) -> float:
    """Half the L1 distance between two distributions over arbitrary keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)
