import math

import pytest

from mbqc.errors import CapacityError, ValidationError
from mbqc.graphs import Graph, LatticeSpec, build_lattice
from mbqc.statmech import (SpinModel, decorate, energy,
                           log_partition_function_bruteforce,
                           log_partition_function_overlap,
                           partition_function_bruteforce,
                           partition_function_overlap)


def two_spin(j=1.0, h0=0.0, h1=0.0, beta=1.0):
    return SpinModel.build(Graph(2, [(0, 1)]), {(0, 1): j}, {0: h0, 1: h1}, beta)


def test_energy_single_spin():
    m = SpinModel.build(Graph(1, []), {}, {0: 1.0}, 1.0)
    assert energy(m, [1]) == -1.0
    assert energy(m, [-1]) == 1.0


def test_energy_two_spins():
    m = two_spin(j=1.0)
    assert energy(m, [1, -1]) == 1.0
    assert energy(m, [1, 1]) == -1.0


def test_energy_matches_independent_evaluator(rng):
    # duplicate implementation with explicit loops over a 2x2 grid
    g = build_lattice(LatticeSpec("grid2d", [2, 2]))
    J = {e: float(rng.uniform(-2, 2)) for e in g.edges}
    h = {v: float(rng.uniform(-2, 2)) for v in range(4)}
    m = SpinModel.build(g, J, h, 1.0)
    for _ in range(20):
        s = rng.choice([-1, 1], size=4)
        ref = -sum(J[(a, b)] * s[a] * s[b] for (a, b) in g.edges) \
              - sum(h[v] * s[v] for v in range(4))
        assert abs(energy(m, s) - ref) < 1e-12


def test_energy_validation():
    m = two_spin()
    with pytest.raises(ValidationError):
        energy(m, [1])
    with pytest.raises(ValidationError):
        energy(m, [1, 2])


def test_model_key_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        SpinModel.build(g, {}, {0: 0.0, 1: 0.0}, 1.0)            # missing J
    with pytest.raises(ValidationError):
        SpinModel.build(g, {(0, 1): 1.0}, {0: 0.0}, 1.0)          # missing h
    with pytest.raises(ValidationError):
        SpinModel.build(g, {(0, 1): 1.0}, {0: 0.0, 1: 0.0}, -1.0)
    doc = {"graph": {"n": 2, "edges": [[0, 1]]}, "J": {"0-1": 1.0},
           "h": {"0": 0.0, "1": 0.0}, "beta": 1.0}
    assert SpinModel.from_json_dict({**doc, "q": 2}) == SpinModel.from_json_dict(doc)
    for q in (3, 2.5, "2", True):
        with pytest.raises(ValidationError, match="only q=2"):
            SpinModel.from_json_dict({**doc, "q": q})


def test_single_spin_partition_function():
    h, beta = 1.3, 0.7
    m = SpinModel.build(Graph(1, []), {}, {0: h}, beta)
    want = 2 * math.cosh(beta * h)
    assert abs(partition_function_bruteforce(m) - want) < 1e-12 * want
    assert abs(partition_function_overlap(m) - want) < 1e-10 * want


def test_two_spin_partition_function():
    j, beta = 0.9, 1.1
    m = two_spin(j=j, beta=beta)
    want = 2 * math.exp(beta * j) + 2 * math.exp(-beta * j)
    assert abs(partition_function_bruteforce(m) - want) < 1e-12 * want
    assert abs(partition_function_overlap(m) - want) < 1e-10 * want


def test_zero_couplings_factorize(rng):
    g = Graph(3, [(0, 1), (1, 2)])
    h = {v: float(rng.uniform(-2, 2)) for v in range(3)}
    beta = 0.8
    m = SpinModel.build(g, {e: 0.0 for e in g.edges}, h, beta)
    want = 1.0
    for v in range(3):
        want *= 2 * math.cosh(beta * h[v])
    assert abs(partition_function_bruteforce(m) - want) < 1e-12 * want


def test_decorate_counting():
    m = SpinModel.build(Graph(1, []), {}, {0: 0.5}, 1.0)
    res = decorate(m)
    assert res.decorated_graph.n_vertices == 1
    assert res.decorated_graph.n_edges == 0

    m = two_spin(j=1.0)
    res = decorate(m)
    assert res.decorated_graph.n_vertices == 3
    assert res.decorated_graph.n_edges == 2

    g = build_lattice(LatticeSpec("grid2d", [2, 2]))
    m = SpinModel.uniform(g, 1.0, 0.0, 1.0)
    res = decorate(m)
    assert res.decorated_graph.n_vertices == 8
    assert res.decorated_graph.n_edges == 8


def test_decoration_coefficients():
    beta, h = 0.7, 1.3
    m = SpinModel.build(Graph(1, []), {}, {0: h}, beta)
    res = decorate(m)
    c0, c1 = res.local_states.coeffs[0]
    scale = math.exp(res.coeff_log_scale)
    assert abs(scale * c0 - math.exp(beta * h)) < 1e-12 * scale
    assert abs(scale * c1 - math.exp(-beta * h)) < 1e-12 * scale


def test_oracle_equivalence_random_models(rng):
    worst = 0.0
    for _ in range(100):
        kind = str(rng.choice(["chain", "star", "grid2d"]))
        dims = [2, int(rng.integers(2, 4))] if kind == "grid2d" \
            else [int(rng.integers(2, 5))]
        g = build_lattice(LatticeSpec(kind, dims))
        m = SpinModel.build(
            g, {e: float(rng.uniform(-2, 2)) for e in g.edges},
            {v: float(rng.uniform(-2, 2)) for v in range(g.n_vertices)},
            float(rng.choice([0.1, 0.5, 1.0])))
        zb = partition_function_bruteforce(m)
        zo = partition_function_overlap(m)
        worst = max(worst, abs(zo - zb) / zb)
    assert worst < 1e-8


def test_high_temperature_limit():
    g = build_lattice(LatticeSpec("grid2d", [2, 2]))
    m = SpinModel.uniform(g, 1.0, 0.5, 1e-6)
    z = partition_function_overlap(m)
    assert abs(z - 16) / 16 < 1e-4


def test_field_flip_symmetry(rng):
    g = build_lattice(LatticeSpec("chain", [4]))
    J = {e: float(rng.uniform(-2, 2)) for e in g.edges}
    h = {v: float(rng.uniform(-2, 2)) for v in range(4)}
    m1 = SpinModel.build(g, J, h, 0.8)
    m2 = SpinModel.build(g, J, {v: -hv for v, hv in h.items()}, 0.8)
    z1, z2 = partition_function_bruteforce(m1), partition_function_bruteforce(m2)
    assert abs(z1 - z2) < 1e-12 * z1


def test_gauge_flip_across_a_bridge():
    # flipping the spins on one side of a bridge edge negates exactly that
    # coupling, so Z is unchanged when h = 0
    g = build_lattice(LatticeSpec("chain", [4]))
    J1 = {e: 1.0 for e in g.edges}
    J2 = dict(J1)
    J2[(1, 2)] = -1.0
    h = {v: 0.0 for v in range(4)}
    z1 = partition_function_overlap(SpinModel.build(g, J1, h, 0.9))
    z2 = partition_function_overlap(SpinModel.build(g, J2, h, 0.9))
    assert abs(z1 - z2) < 1e-9 * z1


def test_log_domain_survives_huge_couplings():
    m = two_spin(j=800.0)
    lz = log_partition_function_bruteforce(m)
    assert abs(lz - (800.0 + math.log(2))) < 1e-6
    assert abs(log_partition_function_overlap(m) - (800.0 + math.log(2))) < 1e-9


@pytest.mark.parametrize("n,m", [(1, 0), (7, 0), (3, 3), (6, 9), (8, 14),
                                 (11, 11), (12, 10), (9, 13)])
def test_edge_by_edge_overlap_matches_brute_force(n, m, rng):
    # random simple graphs with n + m up to the default cap of 22
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for _ in range(3):
        picks = rng.choice(len(pairs), size=m, replace=False) if m else []
        g = Graph(n, [pairs[i] for i in picks])
        model = SpinModel.build(
            g, {e: float(rng.uniform(-2, 2)) for e in g.edges},
            {v: float(rng.uniform(-2, 2)) for v in range(n)},
            float(rng.choice([0.1, 0.5, 1.0, 3.0])))
        want = log_partition_function_bruteforce(model)
        got = log_partition_function_overlap(model)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (n, m)


def test_brute_force_cap():
    g = Graph(25, [])
    m = SpinModel.build(g, {}, {v: 0.0 for v in range(25)}, 1.0)
    with pytest.raises(CapacityError):
        partition_function_bruteforce(m)


def test_overlap_cap():
    g = build_lattice(LatticeSpec("grid2d", [4, 4]))    # 16 + 24 qubits
    m = SpinModel.uniform(g, 1.0, 0.0, 0.5)
    with pytest.raises(CapacityError):
        partition_function_overlap(m, cap=22)


def test_json_round_trip():
    g = build_lattice(LatticeSpec("grid2d", [2, 2]))
    m = SpinModel.uniform(g, 1.5, -0.25, 0.5)
    m2 = SpinModel.from_json(m.to_json())
    assert m2.to_json() == m.to_json()
