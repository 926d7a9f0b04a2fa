import numpy as np
import pytest

from mbqc.errors import ValidationError
from mbqc.graphs import Graph
from mbqc.pauli import symplectic_rank
from mbqc.statevector import graph_state_vector, measure_angle, pauli_expectation
from mbqc.surface import (HoleSpec, ProjectionResult, SliceLayout,
                          build_slice_cluster, build_two_slice_cluster,
                          carve_holes, check_operator, imposed_rank,
                          logical_operators, predicted_sign, present_checks,
                          project_syndrome_layer, teleport_slice,
                          verify_projection)


def test_1x1_counts():
    L = SliceLayout(1, 1)
    g = build_slice_cluster(L)
    assert (L.n_code, L.n_sites, L.n_faces) == (4, 4, 1)
    assert g.n_vertices == 9
    # every edge qubit touches its 2 sites and 1 face; 4*2 + 4 = 12
    assert g.n_edges == 12


def test_2x2_interior_site_degree():
    L = SliceLayout(2, 2)
    assert L.site_degree(1, 1) == 4
    assert L.site_degree(0, 0) == 2
    assert L.site_degree(0, 1) == 3


def test_cluster_round_trips():
    g = build_slice_cluster(SliceLayout(2, 3))
    assert Graph.from_json(g.to_json()) == g


def test_syndrome_adjacency_matches_incidence():
    L = SliceLayout(2, 2)
    g = build_slice_cluster(L)
    adj = g.adjacency()
    for (i, j) in L.all_sites():
        assert sorted(adj[L.site_qubit(i, j)]) == L.site_edges(i, j)
    for (i, j) in L.all_faces():
        assert sorted(adj[L.face_qubit(i, j)]) == L.face_edges(i, j)


def test_projection_all_zero_gives_plus_signs():
    L = SliceLayout(1, 2)
    g = build_slice_cluster(L)
    res = project_syndrome_layer(L, forced={q: 0 for q in range(g.n_vertices)})
    for kind, pos in present_checks(L, res.plan):
        assert res.check_sign(kind, pos) == +1
    report = verify_projection(res)
    assert report["passed"]


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (3, 3)])
def test_projection_random_outcomes(dims):
    L = SliceLayout(*dims)
    for seed in range(10):
        res = project_syndrome_layer(L, randomness=seed)
        report = verify_projection(res)
        assert report["passed"], (dims, seed, report["failures"][:3])


def test_single_flip_changes_predicted_checks_only():
    L = SliceLayout(2, 2)
    g = build_slice_cluster(L)
    base = {q: 0 for q in range(g.n_vertices)}
    res0 = project_syndrome_layer(L, forced=base)
    flip = L.site_qubit(1, 1)
    forced = dict(base)
    forced[flip] = 1
    res1 = project_syndrome_layer(L, forced=forced)
    changed = {(k, p) for k, p in present_checks(L, res0.plan)
               if res0.check_sign(k, p) != res1.check_sign(k, p)}
    predicted = {(k, p) for k, p in present_checks(L, res0.plan)
                 if predicted_sign(L, k, p, base) != predicted_sign(L, k, p, forced)}
    assert changed == predicted
    assert changed == {("A", s) for s in L.site_neighbors(1, 1)}


def test_projection_statevector_cross_check():
    L = SliceLayout(1, 2)
    g = build_slice_cluster(L)
    rng = np.random.default_rng(5)
    forced = {q: int(rng.integers(0, 2)) for q in range(g.n_vertices)}
    sv = graph_state_vector(g, cap=22)
    outcomes = {}
    for (i, j) in L.all_sites():
        q = L.site_qubit(i, j)
        outcomes[q], sv = (lambda m_s: (m_s[0], m_s[1]))(
            measure_angle(sv, q, "Z", 0.0, forced=forced[q]))
    for (i, j) in L.all_faces():
        q = L.face_qubit(i, j)
        m, sv = measure_angle(sv, q, "XY", 0.0, forced=forced[q])
        outcomes[q] = m
    for kind, pos in present_checks(L, carve_holes(L, HoleSpec())):
        emb = check_operator(L, kind, pos, n_qubits=g.n_vertices)
        want = predicted_sign(L, kind, pos, outcomes)
        got = pauli_expectation(sv, emb)
        assert abs(got - want) < 1e-10


def test_full_projection_rank_equals_code_qubits():
    for dims in [(1, 1), (2, 2), (2, 3)]:
        L = SliceLayout(*dims)
        assert imposed_rank(L, carve_holes(L, HoleSpec())) == L.n_code


def test_carve_validation():
    L = SliceLayout(2, 2)
    with pytest.raises(ValidationError):
        carve_holes(L, HoleSpec(electric=((0, 0),)))             # unpaired
    with pytest.raises(ValidationError):
        carve_holes(L, HoleSpec(electric=((0, 0), (2, 2))))      # not adjacent
    with pytest.raises(ValidationError):
        carve_holes(L, HoleSpec(magnetic=((5, 5), (0, 0))))      # out of range
    with pytest.raises(ValidationError):
        carve_holes(L, HoleSpec(magnetic=((0, 0), (0, 0))))      # duplicate


def test_empty_holes_plan_is_plain_projection():
    L = SliceLayout(2, 2)
    plan = carve_holes(L, HoleSpec())
    assert not plan.absent_checks and not plan.code_z
    assert all(b == "X" for b in plan.face_bases.values())


def test_magnetic_hole_removes_exactly_one_plaquette():
    L = SliceLayout(2, 2)
    holes = HoleSpec(magnetic=((0, 0), (1, 1)))
    plan = carve_holes(L, holes)
    res = project_syndrome_layer(L, randomness=3, plan=plan)
    assert res.check_sign("B", (0, 0)) is None
    assert res.check_sign("B", (1, 1)) is None
    report = verify_projection(res)
    assert report["passed"]
    # two absent independent plaquettes: rank drops by exactly 2
    assert imposed_rank(L, plan) == L.n_code - 2
    # holed plaquettes still present in an un-holed projection are reported
    plain = project_syndrome_layer(L, randomness=3)
    report = verify_projection(ProjectionResult(plain.outcomes, plain.code_tableau, plan, L))
    assert report["failures"] == [{"check": "B(0, 0)", "got": "present", "want": "absent"},
                                  {"check": "B(1, 1)", "got": "present", "want": "absent"}]
    assert report["n_checks"] == L.n_sites + L.n_faces


def test_electric_pair_removes_two_stars():
    L = SliceLayout(2, 2)
    holes = HoleSpec(electric=((1, 1), (1, 2)))
    plan = carve_holes(L, holes)
    res = project_syndrome_layer(L, randomness=5, plan=plan)
    assert res.check_sign("A", (1, 1)) is None
    assert res.check_sign("A", (1, 2)) is None
    assert verify_projection(res)["passed"]
    # the site stars satisfy one global relation, so the rank drops by 1
    assert imposed_rank(L, plan) == L.n_code - 1


def test_unconstrained_dof_per_pairing_rule():
    # k holes of one type leave k-1 encodable degrees of freedom beyond
    # the state-fixed one, measured as n_code - rank(imposed)
    L = SliceLayout(3, 3)
    plan_e = carve_holes(L, HoleSpec(electric=((1, 1), (1, 2))))
    assert L.n_code - imposed_rank(L, plan_e) == 1
    plan_m = carve_holes(L, HoleSpec(magnetic=((0, 0), (2, 2))))
    assert L.n_code - imposed_rank(L, plan_m) == 2


def test_logical_operator_algebra():
    L = SliceLayout(3, 3)
    holes = HoleSpec(electric=((1, 1), (1, 2)), magnetic=((0, 0), (2, 2)))
    plan = carve_holes(L, holes)
    zb_e, xb_e = logical_operators(L, holes, "electric")
    zb_m, xb_m = logical_operators(L, holes, "magnetic")
    assert not zb_e.commutes_with(xb_e)
    assert not zb_m.commutes_with(xb_m)
    for a in (zb_e, xb_e):
        for b in (zb_m, xb_m):
            assert a.commutes_with(b)
    ops = [check_operator(L, k, p) for k, p in present_checks(L, plan)]
    for lo in (zb_e, xb_e, zb_m, xb_m):
        for op in ops:
            assert lo.commutes_with(op)
        assert symplectic_rank(ops + [lo]) == symplectic_rank(ops) + 1


def test_homologous_paths_differ_by_plaquettes():
    L = SliceLayout(2, 2)
    holes = HoleSpec(electric=((0, 0), (0, 1)))
    zb1, _ = logical_operators(L, holes, "electric")
    zb2, _ = logical_operators(L, holes, "electric",
                               path=[(0, 0), (1, 0), (1, 1), (0, 1)])
    diff = zb1 * zb2
    bset = [check_operator(L, "B", f) for f in L.all_faces()]
    assert symplectic_rank(bset + [diff]) == symplectic_rank(bset)


def test_magnetic_dual_path_routing():
    L = SliceLayout(3, 3)
    holes = HoleSpec(magnetic=((0, 0), (2, 2)))
    zb, xb = logical_operators(L, holes, "magnetic")
    assert zb == check_operator(L, "B", (0, 0))
    # dual string crosses one shared edge per hop
    n_x = sum(xb.qubit(k) == "X" for k in range(L.n_code))
    assert n_x == 4      # manhattan distance between the two faces


def test_logical_path_must_connect_holes():
    L = SliceLayout(2, 2)
    holes = HoleSpec(electric=((0, 0), (0, 1)))
    with pytest.raises(ValidationError):
        logical_operators(L, holes, "electric", path=[(0, 0), (1, 0)])


def test_teleport_two_slice_counts():
    L = SliceLayout(1, 2)
    g = build_two_slice_cluster(L)
    assert g.n_vertices == L.n_cluster + L.n_code == 22
    g2 = build_two_slice_cluster(L, drop_link=0)
    assert g2.n_edges == g.n_edges - 1


def test_teleport_random_samples():
    L = SliceLayout(1, 2)
    for seed in range(25):
        rep = teleport_slice(L, randomness=seed)
        assert rep.passed, (seed, rep.failures[:2])


def test_teleport_forced_zero_signs():
    L = SliceLayout(1, 2)
    g = build_two_slice_cluster(L)
    rep = teleport_slice(L, forced={q: 0 for q in range(g.n_vertices)})
    assert rep.passed


def test_teleport_negative_control():
    L = SliceLayout(1, 2)
    rep = teleport_slice(L, randomness=3, drop_link=0)
    assert not rep.passed
    assert rep.n_checks == L.n_sites + L.n_faces
    labels = {f"{k}{p}" for k, p in present_checks(L, carve_holes(L, HoleSpec()))}
    for f in rep.failures:
        assert set(f) == {"check", "got", "want"} and f["check"] in labels
        assert f["want"] in (+1, -1) and f["got"] in (+1, -1, None) and f["got"] != f["want"]


def test_layout_json():
    L = SliceLayout(2, 3)
    assert SliceLayout.from_json_dict(L.to_json_dict()) == L
    h = HoleSpec(electric=((0, 0), (0, 1)), magnetic=((1, 1), (0, 2)))
    assert HoleSpec.from_json_dict(h.to_json_dict()) == h
