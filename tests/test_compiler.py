import math

import numpy as np
import pytest

from conftest import random_state
from mbqc.compiler import Circuit, GateOp, compile_circuit, simulate_circuit
from mbqc.engine import (apply_frame, check_determinism, enumerate_branches,
                         run_pattern, validate_pattern)
from mbqc.errors import ValidationError
from mbqc.graphs import Graph
from mbqc.statevector import StateVector, fidelity_up_to_phase, graph_state_vector
from mbqc.tableau import tableau_to_statevector


def all_branch_check(circ, rng, branch_cap=1 << 16):
    prog = compile_circuit(circ)
    assert validate_pattern(prog.pattern) == []
    psi = random_state(circ.n_logical, rng)
    branches = enumerate_branches(prog.pattern, input_state=psi, branch_cap=branch_cap)
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9
    report = check_determinism(branches, simulate_circuit(circ, psi))
    assert report.passed, report.failures[:3]
    return prog


def test_gateop_validation():
    with pytest.raises(ValidationError):
        GateOp("T", (0,))
    with pytest.raises(ValidationError):
        GateOp("CZ", (0,))
    with pytest.raises(ValidationError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(ValidationError):
        Circuit(2, [GateOp("H", (5,))])


def test_empty_circuit_outputs_plus():
    prog = compile_circuit(Circuit(1, []))
    rec = run_pattern(prog.pattern)
    assert fidelity_up_to_phase(rec.output_state, StateVector.plus_state(1)) > 1 - 1e-12


@pytest.mark.parametrize("gates", [
    [GateOp("H", (0,))],
    [GateOp("S", (0,))],
    [GateOp("Rz", (0,), 0.7)],
    [GateOp("Rx", (0,), 1.1)],
    [GateOp("H", (0,)), GateOp("Rz", (0,), -0.9)],
], ids=["H", "S", "Rz", "Rx", "H-Rz"])
def test_single_qubit_gadgets(gates, rng):
    all_branch_check(Circuit(1, gates), rng)


@pytest.mark.parametrize("gates", [
    [GateOp("CZ", (0, 1))],
    [GateOp("H", (0,)), GateOp("CZ", (0, 1))],
    [GateOp("H", (1,)), GateOp("CZ", (0, 1))],
    [GateOp("H", (0,)), GateOp("H", (1,)), GateOp("CZ", (0, 1))],
    [GateOp("CNOT", (0, 1))],
    [GateOp("CNOT", (1, 0))],
    [GateOp("H", (0,)), GateOp("CNOT", (0, 1))],
    [GateOp("H", (1,)), GateOp("CNOT", (0, 1))],
    [GateOp("H", (0,)), GateOp("H", (1,)), GateOp("CNOT", (0, 1))],
], ids=["CZ", "Ha-CZ", "Hb-CZ", "HH-CZ", "CNOT", "CNOT-rev", "Ha-CNOT",
        "Hb-CNOT", "HH-CNOT"])
def test_entangling_gadgets_all_flag_states(gates, rng):
    all_branch_check(Circuit(2, gates), rng)


def test_mixed_three_qubit_circuit(rng):
    circ = Circuit(3, [GateOp("H", (0,)), GateOp("CNOT", (0, 1)),
                       GateOp("Rz", (1,), 0.37), GateOp("CZ", (1, 2))])
    all_branch_check(circ, rng)


def test_distant_pair_swap_routing_sampled():
    # CZ(0,2) routes a logical swap; compiled pattern too wide for
    # exhaustive statevector enumeration, so sample stabilizer branches
    circ = Circuit(3, [GateOp("CZ", (0, 2))])
    prog = compile_circuit(circ)
    assert validate_pattern(prog.pattern) == []
    assert set(prog.site_layout.values()) == {0, 1, 2}
    ref = graph_state_vector(Graph(3, [(0, 2)]))
    for seed in range(20):
        rec = run_pattern(prog.pattern, backend="stabilizer", randomness=seed)
        corrected = apply_frame(rec.output_state, rec.frame, rec.output_sites)
        f = fidelity_up_to_phase(tableau_to_statevector(corrected), ref)
        assert f > 1 - 1e-10, (seed, f)


def test_clifford_circuits_compile_to_pi_over_2_angles(rng):
    circ = Circuit(2, [GateOp("H", (0,)), GateOp("S", (1,)),
                       GateOp("CNOT", (0, 1)), GateOp("CZ", (0, 1))])
    prog = compile_circuit(circ)
    for cmd in prog.pattern.commands:
        if cmd.plane == "XY":
            k = cmd.angle / (math.pi / 2)
            assert abs(k - round(k)) < 1e-12


def test_stabilizer_branch_statistics_match(rng):
    circ = Circuit(2, [GateOp("H", (0,)), GateOp("CNOT", (0, 1)), GateOp("S", (1,))])
    prog = compile_circuit(circ)
    key = lambda b: tuple(sorted(b.outcomes.items()))
    bsv = {key(b): b for b in enumerate_branches(prog.pattern)}
    bst = {key(b): b for b in enumerate_branches(prog.pattern, backend="stabilizer")}
    assert set(bsv) == set(bst)
    for k in bsv:
        assert abs(bsv[k].probability - bst[k].probability) < 1e-12
        f = fidelity_up_to_phase(bsv[k].output_state,
                                 tableau_to_statevector(bst[k].output_state))
        assert f > 1 - 1e-10


def test_resource_growth_bound():
    gates = [GateOp("Rz", (0,), 0.1)] * 6 + [GateOp("CNOT", (0, 1))] * 2
    prog = compile_circuit(Circuit(2, gates))
    n_sites = prog.pattern.resource.n_vertices
    # documented bound: sites <= n_logical * (1 + emitted primitives)
    assert n_sites == prog.n_rows * prog.n_cols
    assert prog.n_cols <= 1 + 4 * (len(gates) + 2)


def test_unused_sites_removed_by_z():
    # one busy row forces trailing Z commands on the idle row
    circ = Circuit(2, [GateOp("Rz", (0,), 0.5)])
    prog = compile_circuit(circ)
    z_cmds = [c for c in prog.pattern.commands if c.plane == "Z"]
    assert z_cmds, "expected trailing Z-removal commands"
    row1_sites = {prog.n_cols + c for c in range(1, prog.n_cols)}
    assert row1_sites <= {c.site for c in z_cmds}


def test_compiled_corrections_reference_outputs_only():
    circ = Circuit(2, [GateOp("H", (0,)), GateOp("CNOT", (0, 1))])
    prog = compile_circuit(circ)
    outs = set(prog.pattern.output_sites)
    for rule in prog.pattern.corrections.values():
        assert set(rule["x_on"]) | set(rule["z_on"]) <= outs


def test_simulate_circuit_gate_library(rng):
    # against explicit matrix products on random states
    psi = random_state(2, rng)
    theta, phi = 0.31, -1.2
    circ = Circuit(2, [GateOp("Rz", (0,), theta), GateOp("H", (0,)),
                       GateOp("Rz", (0,), phi), GateOp("CNOT", (0, 1))])
    got = simulate_circuit(circ, psi)

    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    u = cnot @ np.kron(rz(phi) @ h @ rz(theta), np.eye(2))
    want = StateVector(2, u @ psi.amps)
    assert fidelity_up_to_phase(got, want) > 1 - 1e-12


def test_simulate_circuit_computational_examples():
    sv = simulate_circuit(Circuit(1, [GateOp("H", (0,))]),
                          StateVector.computational(1, 0))
    assert np.allclose(sv.amps, [1, 1] / np.sqrt(2))
    sv = simulate_circuit(Circuit(2, [GateOp("CNOT", (0, 1))]),
                          StateVector.computational(2, 2))      # |10>
    assert np.allclose(np.abs(sv.amps), [0, 0, 0, 1])           # |11>


def test_circuit_json_round_trip():
    circ = Circuit(2, [GateOp("CNOT", (0, 1)), GateOp("Rz", (0,), 0.785398)])
    c2 = Circuit.from_json(circ.to_json())
    assert c2.to_json() == circ.to_json()
    assert c2.gates[1].theta == circ.gates[1].theta


def test_wide_compiled_circuit_frame_corrects_onto_the_circuit():
    """A random 6-qubit, 40-gate circuit compiles to about 400 sites, far
    past the 22-qubit cap, but the statevector walk prepares each site only
    when it or a neighbour is next to be measured, so it holds a handful at
    once: seeded runs on a random input frame-correct onto
    ``simulate_circuit``."""
    rng = np.random.default_rng(6)
    gates = []
    for _ in range(40):
        name = ("H", "S", "Rz", "Rx", "CZ", "CNOT")[int(rng.integers(6))]
        if name in ("CZ", "CNOT"):
            gates.append(GateOp(name, tuple(int(q) for q in rng.choice(6, 2, replace=False))))
        else:
            gates.append(GateOp(name, (int(rng.integers(6)),),
                                float(rng.uniform(-math.pi, math.pi)) if name[0] == "R" else 0.0))
    circ = Circuit(6, gates)
    prog = compile_circuit(circ)
    assert 300 <= prog.pattern.resource.n_vertices <= 700
    psi = random_state(6, rng)
    want = simulate_circuit(circ, psi)
    for seed in range(3):
        rec = run_pattern(prog.pattern, input_state=psi, randomness=seed)
        corrected = apply_frame(rec.output_state, rec.frame, rec.output_sites)
        assert fidelity_up_to_phase(corrected, want) >= 1 - 1e-9
