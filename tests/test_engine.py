import json
import math

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import random_graph, random_state
from mbqc.cli import main
from mbqc.engine import (BranchRecord, MeasurementCommand, MeasurementPattern,
                         PauliFrame, apply_frame, check_determinism,
                         enumerate_branches, run_pattern, validate_pattern)
from mbqc.errors import CapacityError
from mbqc.graphs import Graph
from mbqc.statevector import StateVector, apply_local, fidelity_up_to_phase

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]])


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def wire_pattern(theta):
    return MeasurementPattern(Graph(2, [(0, 1)]), [0], [1],
                              [MeasurementCommand(0, "XY", theta)],
                              corrections={0: {"x_on": [1], "z_on": []}})


def identity_wire():
    # three-site chain measured at theta=0 twice: X^{m1} Z^{m0} byproduct
    return MeasurementPattern(
        Graph(3, [(0, 1), (1, 2)]), [0], [2],
        [MeasurementCommand(0, "XY", 0.0), MeasurementCommand(1, "XY", 0.0)],
        corrections={0: {"z_on": [2]}, 1: {"x_on": [2]}})


def test_empty_pattern_validates():
    p = MeasurementPattern(Graph(0, []), [], [], [])
    assert validate_pattern(p) == []


def test_dependency_order_diagnostic():
    p = MeasurementPattern(
        Graph(2, [(0, 1)]), [], [],
        [MeasurementCommand(0, "XY", 0.0, s_deps=frozenset([1])),
         MeasurementCommand(1, "XY", 0.0)])
    issues = validate_pattern(p)
    assert any("precedes order" in i for i in issues)


def test_unmeasured_site_diagnostic():
    p = MeasurementPattern(Graph(2, [(0, 1)]), [], [1], [])
    issues = validate_pattern(p)
    assert any("never measured" in i for i in issues)
    p = MeasurementPattern(Graph(13, []), [], [12, 40], [MeasurementCommand(1, "Z")])
    assert validate_pattern(p) == [
        "output site 40 out of range",
        "11 non-output sites never measured: 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, ..."]


def test_double_measurement_and_output_measured():
    p = MeasurementPattern(
        Graph(2, [(0, 1)]), [], [1],
        [MeasurementCommand(0, "XY", 0.0), MeasurementCommand(0, "XY", 0.0),
         MeasurementCommand(1, "Z", 0.0)])
    issues = validate_pattern(p)
    assert any("measured twice" in i for i in issues)
    assert any("must not be measured" in i for i in issues)


def test_wire_golden_rule(rng):
    """2-site wire at angle theta: output is X^m H Rz(-theta) |psi>."""
    for _ in range(10):
        theta = float(rng.uniform(-np.pi, np.pi))
        psi = random_state(1, rng)
        for m in (0, 1):
            rec = run_pattern(wire_pattern(theta), input_state=psi, forced={0: m})
            want = psi.copy()
            apply_local(want, rz(-theta), 0)
            apply_local(want, H, 0)
            if m:
                apply_local(want, X, 0)
            assert fidelity_up_to_phase(rec.output_state, want) > 1 - 1e-10


def test_trivial_pattern_outputs_plus():
    p = MeasurementPattern(Graph(1, []), [], [0], [])
    rec = run_pattern(p)
    assert fidelity_up_to_phase(rec.output_state, StateVector.plus_state(1)) > 1 - 1e-12
    assert rec.probability == 1.0 and rec.outcomes == {}


def test_identity_wire_every_branch(rng):
    psi = random_state(1, rng)
    branches = enumerate_branches(identity_wire(), input_state=psi)
    assert len(branches) == 4
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9
    report = check_determinism(branches, psi)
    assert report.passed and report.min_fidelity > 1 - 1e-9


def test_branch_probabilities_uniform_on_wire(rng):
    theta = float(rng.uniform(-np.pi, np.pi))
    branches = enumerate_branches(wire_pattern(theta),
                                  input_state=random_state(1, rng))
    assert len(branches) == 2
    for b in branches:
        assert abs(b.probability - 0.5) < 1e-12


def test_four_site_wire_eight_branches(rng):
    angles = rng.uniform(-np.pi, np.pi, size=3)
    p = MeasurementPattern(
        Graph(4, [(0, 1), (1, 2), (2, 3)]), [0], [3],
        [MeasurementCommand(i, "XY", float(a)) for i, a in enumerate(angles)])
    branches = enumerate_branches(p, input_state=random_state(1, rng))
    assert len(branches) == 8
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9
    for b in branches:      # equatorial wire measurements are unbiased
        assert abs(b.probability - 1 / 8) < 1e-12


def test_zero_measured_sites_single_branch():
    p = MeasurementPattern(Graph(1, []), [], [0], [])
    branches = enumerate_branches(p)
    assert len(branches) == 1 and branches[0].probability == 1.0


def test_branch_cap():
    p = MeasurementPattern(
        Graph(3, [(0, 1), (1, 2)]), [], [2],
        [MeasurementCommand(0, "XY", 0.0), MeasurementCommand(1, "XY", 0.0)])
    with pytest.raises(CapacityError):
        enumerate_branches(p, branch_cap=2)


def test_corrupted_frame_fails_determinism(rng):
    psi = random_state(1, rng)
    branches = enumerate_branches(identity_wire(), input_state=psi)
    bad = []
    for b in branches:
        frame = PauliFrame(dict(b.frame.x), dict(b.frame.z))
        if b.outcomes[0] == 1:                  # corrupt one branch family
            frame.z[2] ^= 1
        bad.append(BranchRecord(b.outcomes, frame, b.output_state,
                                b.probability, b.output_sites, b.log2_probability))
    report = check_determinism(bad, psi)
    assert not report.passed
    assert all(f["outcomes"][0] == 1 for f in report.failures)


def test_replay_same_seed_bit_identical():
    p = identity_wire()
    recs = [run_pattern(p, input_state=StateVector.computational(1, 0),
                        randomness=424242) for _ in range(2)]
    assert recs[0].outcomes == recs[1].outcomes
    assert recs[0].frame == recs[1].frame
    assert np.array_equal(recs[0].output_state.amps, recs[1].output_state.amps)


def test_adaptive_angle_signs():
    cmd = MeasurementCommand(2, "XY", 0.7, s_deps=frozenset([0]),
                             t_deps=frozenset([1]))
    assert abs(cmd.effective_angle({0: 0, 1: 0}) - 0.7) < 1e-15
    assert abs(cmd.effective_angle({0: 1, 1: 0}) + 0.7) < 1e-15
    assert abs(cmd.effective_angle({0: 0, 1: 1}) - (0.7 + math.pi)) < 1e-15
    assert abs(cmd.effective_angle({0: 1, 1: 1}) - (math.pi - 0.7)) < 1e-15


def test_t_dependency_executes(rng):
    # site 1 measured at theta + pi when site 0 fired: equivalent to
    # measuring at theta with the outcome flipped
    g = Graph(3, [(0, 1), (1, 2)])
    theta = 0.9
    p_t = MeasurementPattern(
        g, [0], [2],
        [MeasurementCommand(0, "XY", 0.0),
         MeasurementCommand(1, "XY", theta, t_deps=frozenset([0]))])
    psi = random_state(1, rng)
    for m0 in (0, 1):
        for m1 in (0, 1):
            rec = run_pattern(p_t, input_state=psi, forced={0: m0, 1: m1})
            shift = math.pi if m0 else 0.0
            ref = MeasurementPattern(
                g, [0], [2],
                [MeasurementCommand(0, "XY", 0.0),
                 MeasurementCommand(1, "XY", theta + shift)])
            rec2 = run_pattern(ref, input_state=psi, forced={0: m0, 1: m1})
            assert fidelity_up_to_phase(rec.output_state,
                                        rec2.output_state) > 1 - 1e-12


def test_z_plane_commutes_with_nonneighbors(rng):
    # measuring a detached site in Z before or after other measurements
    # leaves branch statistics unchanged
    g = Graph(3, [(0, 1)])
    early = MeasurementPattern(
        g, [], [1],
        [MeasurementCommand(2, "Z"), MeasurementCommand(0, "XY", 0.4)])
    late = MeasurementPattern(
        g, [], [1],
        [MeasurementCommand(0, "XY", 0.4), MeasurementCommand(2, "Z")])
    be = enumerate_branches(early)
    bl = enumerate_branches(late)
    key = lambda b: tuple(sorted(b.outcomes.items()))
    assert {key(b): round(b.probability, 12) for b in be} == \
           {key(b): round(b.probability, 12) for b in bl}
    for b1 in be:
        b2 = next(b for b in bl if key(b) == key(b1))
        assert fidelity_up_to_phase(b1.output_state, b2.output_state) > 1 - 1e-10


def test_stabilizer_backend_requires_pi_over_2():
    """An angle off the multiples of pi/2 is refused, and so is one of 2^31
    or more quarter turns (at 1e17 every float quotient is whole); 1e6 quarter
    turns still agree with the statevector backend on every branch."""
    for theta in (0.3, 1e17, 2 ** 31 * math.pi / 2):
        with pytest.raises(CapacityError):
            run_pattern(wire_pattern(theta), backend="stabilizer")
    from mbqc.tableau import tableau_to_statevector
    p = wire_pattern(1e6 * math.pi / 2)
    stab = enumerate_branches(p, backend="stabilizer")
    sv = enumerate_branches(p)
    assert [b.outcomes for b in stab] == [b.outcomes for b in sv]
    for a, b in zip(sv, stab):
        got = tableau_to_statevector(b.output_state)
        assert fidelity_up_to_phase(got, a.output_state) > 1 - 1e-12


def test_stabilizer_backend_rejects_input():
    p = wire_pattern(0.0)
    with pytest.raises(CapacityError):
        run_pattern(p, input_state=StateVector.plus_state(1), backend="stabilizer")


def test_pattern_json_round_trip():
    p = identity_wire()
    p2 = MeasurementPattern.from_json(p.to_json())
    assert p2.to_json() == p.to_json()
    assert validate_pattern(p2) == []


def test_apply_frame_on_both_backends():
    from mbqc.tableau import Tableau, tableau_to_statevector
    frame = PauliFrame({7: 1}, {7: 1})
    sv = StateVector.plus_state(1)
    sv2 = apply_frame(sv, frame, [7])
    t = Tableau.plus_state(1)
    t2 = apply_frame(t, frame, [7])
    assert fidelity_up_to_phase(sv2, tableau_to_statevector(t2)) > 1 - 1e-12


def random_clifford_pattern(n, n_out, rng):
    """Random graph measured in a random order: XY commands at multiples of
    pi/2 (Z-plane 1 in 10) with random s/t dependencies on earlier commands,
    and random corrections onto the outputs."""
    order = rng.permutation(n).tolist()
    measured, outputs = order[:n - n_out], order[n - n_out:]
    commands = []
    for k, site in enumerate(measured):
        if rng.random() < 0.1:
            commands.append(MeasurementCommand(site, "Z"))
        else:
            s_deps, t_deps = (frozenset(d for d in measured[:k] if rng.random() < 0.3)
                              for _ in range(2))
            commands.append(MeasurementCommand(site, "XY", int(rng.integers(4)) * math.pi / 2,
                                               s_deps, t_deps))
    corrections = {s: {axis: [o for o in outputs if rng.random() < 0.5]
                       for axis in ("x_on", "z_on")}
                   for s in measured if rng.random() < 0.5}
    return MeasurementPattern(random_graph(n, rng, p=0.4), [], outputs, commands, corrections)


def frame_oracle(p, outcomes):
    """Per-branch frame by the rule the correction table states: every
    measured site with outcome 1 toggles the X/Z exponents it lists."""
    x = {o: 0 for o in p.output_sites}
    z = {o: 0 for o in p.output_sites}
    for site, rule in p.corrections.items():
        if outcomes.get(site, 0) & 1:
            for o in rule["x_on"]:
                x[o] ^= 1
            for o in rule["z_on"]:
                z[o] ^= 1
    return PauliFrame(x, z)


@pytest.mark.parametrize("backend", ["statevector", "stabilizer"])
def test_enumeration_is_lexicographic_with_table_frames(backend, rng):
    """Branches come out in lexicographic command order, outcome 0 first,
    each outcome dict in command order, and every frame is the correction
    table's rule applied branch by branch (a target listed twice cancels)."""
    n_branches = 0
    for n in (5, 7, 9):
        p = random_clifford_pattern(n, 2, rng)
        site = p.commands[-1].site
        p.corrections[site] = {"x_on": p.output_sites[:1] * 2, "z_on": p.output_sites}
        assert validate_pattern(p) == []
        branches = enumerate_branches(p, backend=backend)
        keys = [tuple(b.outcomes[c.site] for c in p.commands) for b in branches]
        assert keys == sorted(set(keys))
        n_branches += len(keys)
        for b in branches:
            assert list(b.outcomes) == [c.site for c in p.commands]
            assert b.frame == frame_oracle(p, b.outcomes)
    assert n_branches > 3 * 2


def replay_patterns(backend, rng):
    """Three random adaptive Clifford patterns, and on the statevector
    backend one at random angles with s and t dependencies."""
    patterns = [random_clifford_pattern(8, 2, rng) for _ in range(3)]
    if backend == "statevector":
        angles = rng.uniform(-np.pi, np.pi, size=3)
        patterns.append(MeasurementPattern(
            Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), [], [3, 4],
            [MeasurementCommand(0, "XY", float(angles[0])),
             MeasurementCommand(1, "XY", float(angles[1]), s_deps=frozenset([0])),
             MeasurementCommand(2, "XY", float(angles[2]), t_deps=frozenset([0]))],
            corrections={1: {"x_on": [3], "z_on": [4]}}))
    return patterns


@pytest.mark.parametrize("backend", ["statevector", "stabilizer"])
def test_every_branch_replays_under_forced_run(backend, rng):
    patterns = replay_patterns(backend, rng)
    pruned = False
    for p in patterns:
        branches = enumerate_branches(p, backend=backend)
        pruned |= len(branches) < 2 ** len(p.commands)
        for b in branches:
            rec = run_pattern(p, backend=backend, forced=b.outcomes)
            assert rec.outcomes == b.outcomes
            assert abs(rec.probability - b.probability) < 1e-12
            assert rec.frame == b.frame
            if backend == "stabilizer":
                assert rec.output_state.dump() == b.output_state.dump()
            else:
                assert np.allclose(rec.output_state.amps, b.output_state.amps,
                                   rtol=0, atol=1e-12)
    assert pruned      # deterministic outcomes were met and pruned


@pytest.mark.parametrize("backend", ["sv", "stab"])
def test_every_branches_row_replays_under_forced_run_pattern(backend, rng, tmp_path, capsys):
    """Each row of the ``branches`` report, replayed by ``run-pattern
    --force-outcomes`` (which follows one branch and builds its record),
    gives the same outcomes and frame, and its probability and log2
    probability within 1e-12 relative."""
    def report(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["result"]

    patterns = replay_patterns({"sv": "statevector", "stab": "stabilizer"}[backend], rng)
    if backend == "sv":         # once site 1 is measured, site 0 is in a pure state of its
        a, b = rng.uniform(-np.pi, np.pi, size=2)       # own: its probabilities follow s and t
        patterns.append(MeasurementPattern(
            Graph(3, [(0, 1)]), [], [2],
            [MeasurementCommand(1, "XY", float(a)),
             MeasurementCommand(0, "XY", float(b), s_deps=frozenset([1]), t_deps=frozenset([1]))],
            corrections={1: {"x_on": [2]}, 0: {"z_on": [2]}}))
    pruned = False
    for i, p in enumerate(patterns):
        path = tmp_path / f"p{i}.json"
        path.write_text(p.to_json())
        rows = report(["branches", "--pattern", str(path), "--backend", backend])["branches"]
        pruned |= len(rows) < 2 ** len(p.commands)
        for row in rows:
            forced = ",".join(f"{site}={bit}" for site, bit in row["outcomes"].items())
            rec = report(["run-pattern", "--pattern", str(path), "--backend", backend,
                          "--force-outcomes", forced])
            assert rec["outcomes"] == row["outcomes"]
            assert rec["frame"] == row["frame"]
            for key in ("probability", "log2_probability"):
                assert math.isclose(rec[key], row[key], rel_tol=1e-12), key
    assert pruned      # deterministic outcomes were met and pruned


def test_long_clifford_chain_on_stabilizer_backend():
    # more commands than Python's default recursion limit
    n = 1101
    commands = [MeasurementCommand(i, "XY", (i % 4) * math.pi / 2,
                                   s_deps=frozenset([i - 1]) if i >= 1 else frozenset(),
                                   t_deps=frozenset([i - 2]) if i >= 2 else frozenset())
                for i in range(n - 1)]
    p = MeasurementPattern(Graph(n, [(i, i + 1) for i in range(n - 1)]), [], [n - 1],
                           commands, corrections={n - 2: {"x_on": [n - 1], "z_on": []}})
    rec = run_pattern(p, backend="stabilizer", randomness=5)
    assert len(rec.outcomes) == n - 1
    assert rec.output_state.n == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_backends_agree_on_every_branch(seed):
    """The statevector and stabilizer backends walk the same outcome tree:
    the same outcomes with the same probabilities and frames, and outputs
    that agree up to phase once each is frame-corrected."""
    from mbqc.tableau import tableau_to_statevector
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    p = random_clifford_pattern(n, int(rng.integers(0, min(n, 3) + 1)), rng)
    note(p.to_json())
    assert validate_pattern(p) == []
    sv = {tuple(sorted(b.outcomes.items())): b for b in enumerate_branches(p)}
    stab = {tuple(sorted(b.outcomes.items())): b
            for b in enumerate_branches(p, backend="stabilizer")}
    assert sv.keys() == stab.keys()
    for key, a in sv.items():
        b = stab[key]
        assert abs(a.probability - b.probability) < 1e-12
        assert a.frame == b.frame
        want = apply_frame(a.output_state, a.frame, p.output_sites)
        got = tableau_to_statevector(apply_frame(b.output_state, b.frame, p.output_sites))
        assert fidelity_up_to_phase(got, want) > 1 - 1e-9


def _adaptive_pattern(n, inputs, rng):
    """Random graph on n sites with the given inputs; the last two sites of a
    random order are the outputs, and every command adapts to earlier ones."""
    order = rng.permutation(n).tolist()
    commands = []
    for j, s in enumerate(order[:-2]):
        deps = [d for d in order[:j] if rng.random() < 0.3]
        commands.append(MeasurementCommand(s, "Z" if rng.random() < 0.15 else "XY",
                                           float(rng.uniform(-np.pi, np.pi)),
                                           deps[::2], deps[1::2]))
    return MeasurementPattern(random_graph(n, rng, p=0.4), inputs, order[-2:], commands)


def test_input_state_is_left_unchanged(rng):
    """The walk entangles its level in place; a caller's injected input state
    is copied first, by a run and by an enumeration alike.  The first
    pattern's first command entangles two inputs before any site joins, and
    the second's only command is none: all its sites are inputs and outputs."""
    patterns = [MeasurementPattern(Graph(3, [(0, 1), (1, 2)]), [1, 0], [2],
                                   [MeasurementCommand(0, "XY", 0.3),
                                    MeasurementCommand(1, "XY", 0.7)]),
                MeasurementPattern(Graph(3, [(0, 1), (1, 2)]), [2, 0, 1], [0, 1, 2], [])]
    patterns += [_adaptive_pattern(6, [4, 1, 0], rng) for _ in range(4)]
    for p in patterns:
        psi = random_state(len(p.input_sites), rng)
        kept = psi.amps.copy()
        run_pattern(p, input_state=psi, randomness=1)
        assert np.array_equal(psi.amps, kept)
        enumerate_branches(p, input_state=psi)
        assert np.array_equal(psi.amps, kept)


def test_inputs_out_of_site_order_match_a_dense_reference(rng):
    """Inputs listed out of site order are injected in their listed order:
    each branch's output and probability match a dense reference that
    prepares all sites, entangles every edge and then projects each command
    in turn, written here with its own index arithmetic."""
    for _ in range(6):
        n = int(rng.integers(4, 8))
        inputs = rng.permutation(n)[:3].tolist()
        if inputs == sorted(inputs):
            inputs.reverse()
        p = _adaptive_pattern(n, inputs, rng)
        psi = random_state(3, rng)
        rest = [s for s in range(n) if s not in inputs]
        dense = np.kron(psi.amps, np.full(1 << len(rest), 2.0 ** (-len(rest) / 2)))
        dense = np.moveaxis(dense.reshape((2,) * n), range(n), inputs + rest)
        bits = np.indices((2,) * n)
        for a, b in p.resource.edges:
            dense = dense * (1 - 2 * (bits[a] & bits[b]))
        for b in enumerate_branches(p, input_state=psi):
            ref, axes = dense, list(range(n))
            for c in p.commands:
                m = b.outcomes[c.site]
                theta = c.effective_angle(b.outcomes)
                bra = (np.array([1 - m, m]) if c.plane == "Z" else
                       np.array([1, (-1) ** m * np.exp(-1j * theta)]) / math.sqrt(2))
                ref = np.tensordot(ref, bra, axes=([axes.index(c.site)], [0]))
                axes.remove(c.site)
            ref = np.transpose(ref, [axes.index(o) for o in p.output_sites]).reshape(-1)
            prob = float(np.vdot(ref, ref).real)
            assert abs(b.probability - prob) < 1e-12
            want = StateVector(len(p.output_sites), ref / math.sqrt(prob))
            assert fidelity_up_to_phase(b.output_state, want) > 1 - 1e-12
