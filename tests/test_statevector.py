import numpy as np
import pytest

from conftest import random_state
from mbqc.errors import CapacityError, ContradictionError, ValidationError
from mbqc.graphs import Graph
from mbqc.engine import MeasurementCommand, MeasurementPattern, _backend
from mbqc.statevector import (ProductState, StateVector, apply_cz, apply_local,
                              compact, extract_qubits,
                              fidelity_up_to_phase, graph_state_vector,
                              measure_angle, measure_probability, overlap,
                              pauli_expectation, tensor)


def test_plus_state_amplitudes():
    sv = graph_state_vector(Graph(1, []))
    assert np.allclose(sv.amps, [1, 1] / np.sqrt(2))


def test_two_vertex_graph_state():
    sv = graph_state_vector(Graph(2, [(0, 1)]))
    assert np.allclose(sv.amps, np.array([1, 1, 1, -1]) / 2)


def test_chain_of_three_amplitude_formula():
    # amplitude of |z0 z1 z2> is 2^{-3/2} (-1)^{z0 z1 + z1 z2}
    sv = graph_state_vector(Graph(3, [(0, 1), (1, 2)]))
    for idx in range(8):
        z0, z1, z2 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        want = 2 ** (-1.5) * (-1) ** (z0 * z1 + z1 * z2)
        assert abs(sv.amps[idx] - want) < 1e-14


def test_graph_state_cap():
    with pytest.raises(CapacityError):
        graph_state_vector(Graph(23, []), cap=22)


def test_measure_theta0_on_plus_deterministic():
    sv = StateVector.plus_state(1)
    m, post = measure_angle(sv, 0, "XY", 0.0, randomness=3)
    assert m == 0
    assert fidelity_up_to_phase(post, sv) > 1 - 1e-12


def test_measure_z_on_plus_probabilities():
    sv = StateVector.plus_state(1)
    assert abs(measure_probability(sv, 0, "Z", 0.0, 0) - 0.5) < 1e-12
    assert abs(measure_probability(sv, 0, "Z", 0.0, 1) - 0.5) < 1e-12


def test_measure_y_eigenstate_deterministic():
    sv = StateVector(1, np.array([1, 1j]) / np.sqrt(2))
    m, _ = measure_angle(sv, 0, "XY", np.pi / 2, randomness=11)
    assert m == 0


def test_forced_impossible_outcome_raises():
    sv = StateVector.computational(1, 0)
    with pytest.raises(ContradictionError):
        measure_angle(sv, 0, "Z", 0.0, forced=1)


def test_measured_qubit_stays_in_place():
    sv = graph_state_vector(Graph(2, [(0, 1)]))
    m, post = measure_angle(sv, 0, "Z", 0.0, forced=0)
    assert post.n == 2
    reduced = compact(post, 0)
    assert reduced.n == 1


def test_overlap_examples():
    sv = StateVector.plus_state(1)
    assert abs(overlap(sv, ProductState([(1, 1)])) - np.sqrt(2)) < 1e-12
    g = graph_state_vector(Graph(2, [(0, 1)]))
    assert abs(overlap(g, ProductState([(1, 0), (1, 0)])) - 0.5) < 1e-12


def test_overlap_is_bilinear(rng):
    sv = random_state(3, rng)
    base = [(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
            for _ in range(3)]
    v0 = overlap(sv, ProductState(base))
    for k in range(3):
        scaled = list(base)
        scaled[k] = (2.5 * scaled[k][0], 2.5 * scaled[k][1])
        assert abs(overlap(sv, ProductState(scaled)) - 2.5 * v0) < 1e-9 * abs(v0) + 1e-12
    # additivity in one slot
    other = list(base)
    other[1] = (rng.normal(), rng.normal())
    summed = list(base)
    summed[1] = (base[1][0] + other[1][0], base[1][1] + other[1][1])
    lhs = overlap(sv, ProductState(summed))
    rhs = overlap(sv, ProductState(base)) + overlap(sv, ProductState(other))
    assert abs(lhs - rhs) < 1e-9


def test_overlap_does_not_conjugate():
    sv = StateVector(1, np.array([1.0, 0.0], dtype=complex))
    val = overlap(sv, ProductState([(1j, 0)]))
    assert abs(val - 1j) < 1e-12


def test_product_state_rejects_zero_pair():
    with pytest.raises(ValidationError):
        ProductState([(0, 0)])


def test_fidelity_examples(rng):
    a = random_state(3, rng)
    assert abs(fidelity_up_to_phase(a, a) - 1) < 1e-12
    z0, z1 = StateVector.computational(1, 0), StateVector.computational(1, 1)
    assert fidelity_up_to_phase(z0, z1) < 1e-12
    phi = np.exp(1j * 1.234)
    b = StateVector(a.n, phi * a.amps)
    assert abs(fidelity_up_to_phase(a, b) - 1) < 1e-12


def test_apply_local_examples():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    sv = StateVector.computational(1, 0)
    apply_local(sv, h, 0)
    assert np.allclose(sv.amps, [1, 1] / np.sqrt(2))
    sv = StateVector.computational(2, 3)
    apply_cz(sv, 0, 1)
    assert np.allclose(sv.amps, [0, 0, 0, -1])


def test_apply_local_rejects_non_unitary():
    sv = StateVector.computational(1, 0)
    with pytest.raises(ValidationError):
        apply_local(sv, np.array([[1, 0], [0, 2]]), 0)


def test_rz_on_plus():
    theta = 0.83
    rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    sv = StateVector.plus_state(1)
    apply_local(sv, rz, 0)
    want = StateVector(1, np.array([1, np.exp(1j * theta)]) / np.sqrt(2))
    assert fidelity_up_to_phase(sv, want) > 1 - 1e-12


def test_norm_preserved_by_random_unitaries(rng):
    sv = random_state(4, rng)
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        apply_local(sv, q, int(rng.integers(0, 4)))
    assert abs(sv.norm() - 1) < 1e-12


def test_compact_rejects_entangled_qubit():
    sv = graph_state_vector(Graph(2, [(0, 1)]))
    with pytest.raises(ValidationError):
        compact(sv, 0)


def test_extract_qubits_reorders(rng):
    a = random_state(1, rng)
    b = random_state(1, rng)
    joint = tensor(a, b)
    swapped = extract_qubits(joint, [1, 0])
    assert fidelity_up_to_phase(swapped, tensor(b, a)) > 1 - 1e-12


def test_pauli_expectation_on_graph_state(rng):
    from mbqc.pauli import PauliString
    g = Graph(3, [(0, 1), (1, 2)])
    sv = graph_state_vector(g)
    val = pauli_expectation(sv, PauliString.from_text("+ZXZ"))
    assert abs(val - 1) < 1e-12
    val = pauli_expectation(sv, PauliString.from_text("+XII"))
    assert abs(val) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_cz_matches_the_index_mask(n, rng):
    idx = np.arange(1 << n)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            sv = random_state(n, rng)
            both = ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)
            want = np.where(both, -sv.amps, sv.amps)
            assert np.array_equal(apply_cz(sv, a, b).amps, want), (a, b)


def test_apply_cz_rejects_bad_targets():
    sv = StateVector.plus_state(3)
    for a, b in ((1, 1), (0, 3), (-1, 2), (2, 5)):
        with pytest.raises(ValidationError):
            apply_cz(sv, a, b)


def _projector_reference(sv, q, plane, theta, m):
    """p_m and the compacted post-state from the dense 2^n projector."""
    if plane == "Z":
        ket = np.array([1.0 - m, m], dtype=complex)
    else:
        ket = np.array([1.0, (-1) ** m * np.exp(1j * theta)]) / np.sqrt(2)
    proj = np.kron(np.kron(np.eye(1 << q), np.outer(ket, ket.conj())),
                   np.eye(1 << (sv.n - 1 - q)))
    post = proj @ sv.amps
    p = float(np.vdot(post, post).real)
    return p, compact(StateVector(sv.n, post / np.sqrt(p)), q)


@pytest.mark.parametrize("n", range(1, 7))
def test_fused_step_matches_measure_then_compact(n, rng):
    # the engine's statevector level step, on a level of two branches with
    # their own angles, against compact(measure_angle(...)) and against a
    # dense projector, for every qubit, plane and outcome; the step returns
    # one (parent, outcome, p_m) per child row, branch by branch, outcome 0 first
    pattern = MeasurementPattern(Graph(n, []), [], [], [])
    _, step, _ = _backend(pattern, None, "statevector", n)
    for q in range(n):
        for plane in ("XY", "Z"):
            svs = [random_state(n, rng) for _ in range(2)]
            thetas = [float(rng.uniform(-np.pi, np.pi)) if plane == "XY" else 0.0
                      for _ in svs]
            level = (np.stack([sv.amps for sv in svs]), list(range(n)))
            parent, outcome, p_m, (posts, live) = step(level, MeasurementCommand(q, plane),
                                                        thetas, None)
            assert [(int(i), int(m)) for i, m in zip(parent, outcome)] == [
                (0, 0), (0, 1), (1, 0), (1, 1)]          # random states: both outcomes followed
            assert len(p_m) == len(posts) == len(parent)
            probs, children = [{}, {}], [{}, {}]
            for i, m, pm, row in zip(parent, outcome, p_m, posts):
                probs[i][int(m)], children[i][int(m)] = float(pm), StateVector(n - 1, row)
            for sv, theta, chosen, kids in zip(svs, thetas, probs, children):
                for m in (0, 1):
                    p_ref, post_ref = _projector_reference(sv, q, plane, theta, m)
                    assert abs(chosen.get(m, 0.0) - p_ref) < 1e-12
                    assert abs(measure_probability(sv, q, plane, theta, m) - p_ref) < 1e-12
                    _, measured = measure_angle(sv, q, plane, theta, forced=m)
                    inline = compact(measured, q)
                    post = kids[m]
                    assert live == [k for k in range(n) if k != q]
                    assert fidelity_up_to_phase(post, inline) >= 1 - 1e-12
                    assert fidelity_up_to_phase(post, post_ref) >= 1 - 1e-12
                    assert abs(post.norm() - 1) < 1e-12
