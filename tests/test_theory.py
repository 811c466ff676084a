"""Exact-theory module: frozen values, closed forms, and a dense-matrix cross-check.

The dense oracle in this file rebuilds both walks with explicit numpy
operators on the full (2L+1)*2 dimensional space, independently of the
dict-based evolution under test.
"""
import math
import tracemalloc

import numpy as np
import pytest

from qwalk.errors import UnsupportedStep
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

PHI2_GRID = [0.0, math.pi / 2, -math.pi / 2, math.pi, 0.3]


# --- independent dense-matrix reference -----------------------------------

def _idx(x: int, s: int, levels: int) -> int:
    return (x + levels) * 2 + s

def _shift_matrix(levels: int) -> np.ndarray:
    dim = (2 * levels + 1) * 2
    s = np.zeros((dim, dim), dtype=complex)
    for x in range(-levels + 1, levels + 1):
        s[_idx(x - 1, UP, levels), _idx(x, UP, levels)] = 1.0
    for x in range(-levels, levels):
        s[_idx(x + 1, DOWN, levels), _idx(x, DOWN, levels)] = 1.0
    return s

def _site_coin(levels: int, sites, coin: np.ndarray) -> np.ndarray:
    dim = (2 * levels + 1) * 2
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(-levels, levels + 1):
        block = coin if x in sites else np.eye(2)
        i = _idx(x, UP, levels)
        m[i:i + 2, i:i + 2] = block
    return m

def _dense_hadamard_probs(steps: int, start: list[tuple[int, int, complex]]):
    levels = steps + 2
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    dim = (2 * levels + 1) * 2
    psi = np.zeros(dim, dtype=complex)
    for x, s, a in start:
        psi[_idx(x, s, levels)] = a
    step = _shift_matrix(levels) @ _site_coin(levels, range(-levels, levels + 1), h)
    for _ in range(steps):
        psi = step @ psi
    probs = {}
    for x in range(-levels, levels + 1):
        p = abs(psi[_idx(x, UP, levels)]) ** 2 + abs(psi[_idx(x, DOWN, levels)]) ** 2
        if p > 1e-15:
            probs[x] = p
    return probs

def _dense_jeong_probs(levels: int, phi1: float, phi2: float) -> dict[int, float]:
    pad = levels + 2
    b = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
    p1 = np.diag([np.exp(1j * phi1), 1.0])
    p2 = np.diag([1.0, np.exp(1j * phi2)])
    t = p2 @ b @ p1
    shift = _shift_matrix(pad)
    psi = np.zeros((2 * pad + 1) * 2, dtype=complex)
    psi[_idx(0, UP, pad)] = 1.0
    psi = shift @ _site_coin(pad, {0}, b) @ psi
    for step in range(2, levels + 1):
        sites = set(range(-step + 1, step, 2))
        psi = shift @ _site_coin(pad, sites, t) @ psi
    probs = {}
    for x in range(-pad, pad + 1):
        p = abs(psi[_idx(x, UP, pad)]) ** 2 + abs(psi[_idx(x, DOWN, pad)]) ** 2
        if p > 1e-15:
            probs[x] = p
    return probs


# --- binomial baseline ------------------------------------------------------

def test_srw_small_rows():
    assert srw_distribution(1) == {-1: 0.5, 1: 0.5}
    assert srw_distribution(2) == {-2: 0.25, 0: 0.5, 2: 0.25}
    assert srw_distribution(4) == {-4: 1 / 16, -2: 4 / 16, 0: 6 / 16,
                                   2: 4 / 16, 4: 1 / 16}

@pytest.mark.parametrize("l", [1, 2, 3, 5, 8, 13])
def test_srw_sums_to_one_exactly(l):
    assert sum(srw_distribution(l).values()) == 1.0

def test_srw_rejects_zero_steps():
    with pytest.raises(ValueError):
        srw_distribution(0)


# --- coined-walk evolution ---------------------------------------------------

def test_one_step_from_origin_splits_evenly():
    _, probs = hadamard_walk(1, StateVector.basis(0, UP))
    assert probs == pytest.approx({-1: 0.5, 1: 0.5})

def test_zero_steps_is_identity():
    init = StateVector({(2, UP): 0.6, (-1, DOWN): 0.8j})
    state, _ = hadamard_walk(0, init)
    assert state.amplitudes == init.amplitudes

def test_four_step_walk_is_left_heavy():
    _, probs = hadamard_walk(4, StateVector.basis(0, UP))
    expected = {-4: 1 / 16, -2: 10 / 16, 0: 2 / 16, 2: 2 / 16, 4: 1 / 16}
    assert probs == pytest.approx(expected, abs=1e-12)

def test_conditioned_branches_keep_half_norm():
    # frozen from the dense evolution of the two t2-conditioned states
    _, minus = hadamard_walk(3, StateVector.basis(-1, UP, 1 / math.sqrt(2)))
    assert minus == pytest.approx(
        {-4: 1 / 16, -2: 5 / 16, 0: 1 / 16, 2: 1 / 16}, abs=1e-12)
    _, plus = hadamard_walk(3, StateVector.basis(+1, DOWN, 1 / math.sqrt(2)))
    assert plus == pytest.approx(
        {-2: 1 / 16, 0: 1 / 16, 2: 5 / 16, 4: 1 / 16}, abs=1e-12)
    assert sum(minus.values()) == pytest.approx(0.5, abs=1e-12)
    assert sum(plus.values()) == pytest.approx(0.5, abs=1e-12)

@pytest.mark.parametrize("steps", range(7))
def test_matches_dense_matrix_evolution(steps):
    _, probs = hadamard_walk(steps, StateVector.basis(0, UP))
    dense = _dense_hadamard_probs(steps, [(0, UP, 1.0)])
    for x in set(probs) | set(dense):
        assert probs.get(x, 0.0) == pytest.approx(dense.get(x, 0.0), abs=1e-12)

def test_matches_dense_matrix_for_mixed_initial_state():
    amp = 1 / math.sqrt(2)
    init = StateVector({(-1, UP): amp, (1, DOWN): amp * 1j})
    _, probs = hadamard_walk(3, init)
    dense = _dense_hadamard_probs(3, [(-1, UP, amp), (1, DOWN, amp * 1j)])
    for x in set(probs) | set(dense):
        assert probs.get(x, 0.0) == pytest.approx(dense.get(x, 0.0), abs=1e-12)

def test_norm_conserved_each_step():
    state = StateVector.basis(0, UP)
    for _ in range(6):
        state, probs = hadamard_walk(1, state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        hadamard_walk(-1, StateVector.basis(0, UP))

def test_long_walk_keeps_only_the_current_step():
    # the state after step n has O(n) amplitudes; keeping every step's
    # state would make the peak grow with the square of the step count
    tracemalloc.start()
    try:
        hadamard_walk(500, StateVector.basis(0, UP))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# --- mesh walk ----------------------------------------------------------------

def test_mesh_walk_frozen_rows():
    row3 = jeong_evolve(3, 0.4, 0.0)[2]
    assert row3 == pytest.approx({-3: 1 / 8, -1: 5 / 8, 1: 1 / 8, 3: 1 / 8},
                                 abs=1e-12)
    row4 = jeong_evolve(4, 0.4, 0.0)[3]
    assert row4 == pytest.approx({-4: 1 / 16, -2: 10 / 16, 0: 2 / 16,
                                  2: 2 / 16, 4: 1 / 16}, abs=1e-12)
    row5 = jeong_evolve(5, 0.4, -math.pi / 2)[4]
    assert row5 == pytest.approx({-5: 1 / 32, -3: 11 / 32, -1: 4 / 32,
                                  1: 4 / 32, 3: 11 / 32, 5: 1 / 32}, abs=1e-12)

@pytest.mark.parametrize("phi2", PHI2_GRID)
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_mesh_walk_matches_closed_form(l, phi2):
    evolved = jeong_evolve(l, 0.9, phi2)[l - 1]
    closed = table1_closed_form(l, phi2)
    for x in set(evolved) | set(closed):
        assert evolved.get(x, 0.0) == pytest.approx(closed.get(x, 0.0), abs=1e-12)

@pytest.mark.parametrize("levels", [3, 5, 7])
def test_mesh_walk_matches_dense_matrix(levels):
    probs = jeong_evolve(levels, 0.8, -1.1)[-1]
    dense = _dense_jeong_probs(levels, 0.8, -1.1)
    for x in set(probs) | set(dense):
        assert probs.get(x, 0.0) == pytest.approx(dense.get(x, 0.0), abs=1e-12)

def test_mesh_walk_normalized_each_step():
    for step_probs in jeong_evolve(8, 1.0, 0.7):
        assert sum(step_probs.values()) == pytest.approx(1.0, abs=1e-12)

@pytest.mark.parametrize("phi1_pair", [(0.0, math.pi / 2), (0.3, 2.2)])
def test_probabilities_do_not_depend_on_phi1(phi1_pair):
    a, b = phi1_pair
    for pa, pb in zip(jeong_evolve(6, a, -0.9), jeong_evolve(6, b, -0.9)):
        for x in set(pa) | set(pb):
            assert pa.get(x, 0.0) == pytest.approx(pb.get(x, 0.0), abs=1e-12)

@pytest.mark.parametrize("l", [3, 4, 5])
def test_phi2_shift_by_pi_mirrors_distribution(l):
    phi2 = 0.7
    p = jeong_evolve(l, 0.0, phi2)[l - 1]
    q = jeong_evolve(l, 0.0, phi2 + math.pi)[l - 1]
    for x in p:
        assert p[x] == pytest.approx(q[-x], abs=1e-12)

@pytest.mark.parametrize("l", [1, 2])
def test_first_two_steps_equal_classical_walk(l):
    probs = jeong_evolve(l, 1.3, 0.8)[l - 1]
    srw = srw_distribution(l)
    for x in set(probs) | set(srw):
        assert probs.get(x, 0.0) == pytest.approx(srw.get(x, 0.0), abs=1e-12)

def test_mesh_walk_level_bounds():
    with pytest.raises(ValueError):
        jeong_evolve(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        jeong_evolve(21, 0.0, 0.0)


# --- closed-form table ----------------------------------------------------------

def test_closed_form_frozen_values():
    row = table1_closed_form(3, math.pi)
    assert row[-1] == pytest.approx(1 / 8, abs=1e-15)
    assert row[1] == pytest.approx(5 / 8, abs=1e-15)
    row = table1_closed_form(4, math.pi / 2)
    assert row[-2] == pytest.approx(6 / 16, abs=1e-15)
    assert row[2] == pytest.approx(6 / 16, abs=1e-15)
    assert row[0] == pytest.approx(2 / 16, abs=1e-15)

@pytest.mark.parametrize("phi2", PHI2_GRID + [1.234])
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_closed_form_normalized(l, phi2):
    assert sum(table1_closed_form(l, phi2).values()) == pytest.approx(1.0, abs=1e-12)

@pytest.mark.parametrize("l", [0, 6, 9])
def test_closed_form_outside_tabulated_range(l):
    with pytest.raises(UnsupportedStep):
        table1_closed_form(l, 0.0)


# --- input checks ------------------------------------------------------------

@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("oracle,shown", [
    (lambda phi: jeong_evolve(3, phi, 0.0), "phi1={}, phi2=0.0"),
    (lambda phi: jeong_evolve(3, 0.0, phi), "phi1=0.0, phi2={}"),
    (lambda phi: table1_closed_form(3, phi), "phi2={}"),
], ids=["jeong_evolve-phi1", "jeong_evolve-phi2", "table1_closed_form"])
def test_oracles_reject_a_non_finite_phase(oracle, shown, phi):
    # a NaN phase gave NaN probabilities, an infinite one "math domain
    # error"; the message is build_jeong's
    with pytest.raises(ValueError) as exc:
        oracle(phi)
    assert str(exc.value) == f"phases must be finite, got {shown.format(phi)}"

@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("oracle,name", [
    (lambda n: jeong_evolve(n, 0.0, 0.0), "levels"),
    (lambda n: hadamard_walk(n, StateVector.basis(0, UP)), "steps"),
    (srw_distribution, "steps"),
], ids=["jeong_evolve", "hadamard_walk", "srw_distribution"])
def test_oracles_reject_a_count_that_is_not_an_int(oracle, name, count):
    # 2.5 gave "can't multiply sequence by non-int" ("'float' object cannot
    # be interpreted as an integer" in srw_distribution), and True ran one
    # step
    with pytest.raises(TypeError) as exc:
        oracle(count)
    assert str(exc.value) == f"{name} must be an int, got {type(count).__name__}"


# --- distance helper ---------------------------------------------------------

def test_total_variation_basics():
    assert total_variation({0: 1.0}, {0: 1.0}) == 0.0
    assert total_variation({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
    assert total_variation({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)
