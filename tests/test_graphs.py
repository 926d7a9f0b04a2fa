import json
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbqc.errors import ValidationError
from mbqc.graphs import (SITE_BYTES, DefectMask, Graph, LatticeSpec, _spans,
                         apply_site_defects, build_lattice, has_spanning_cluster,
                         spanning_probability)
from mbqc.rng import make_rng

SHAPES = [(1, 1), (1, 7), (7, 1), (4, 9), (9, 4), (6, 6)]
RATES = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]


def test_chain_is_path():
    g = build_lattice(LatticeSpec("chain", [3]))
    assert g.n_vertices == 3
    assert g.edges == ((0, 1), (1, 2))


def test_star_is_ghz_graph():
    g = build_lattice(LatticeSpec("star", [4]))
    assert g.edges == ((0, 1), (0, 2), (0, 3))


def test_grid2d_counts():
    g = build_lattice(LatticeSpec("grid2d", [2, 3]))
    assert g.n_vertices == 6
    assert g.n_edges == 7


def test_grid3d_counts():
    g = build_lattice(LatticeSpec("grid3d", [2, 2, 2]))
    assert g.n_vertices == 8
    assert g.n_edges == 12


def test_row_major_indexing():
    g = build_lattice(LatticeSpec("grid2d", [2, 3]))
    assert g.has_edge(0, 1) and g.has_edge(1, 2)      # first row
    assert g.has_edge(0, 3) and g.has_edge(2, 5)      # columns


@pytest.mark.parametrize("kind,dims", [
    ("chain", []), ("chain", [0]), ("grid2d", [2]), ("grid3d", [2, 2]),
    ("nonsense", [1]),
])
def test_bad_lattice_specs(kind, dims):
    with pytest.raises(ValidationError):
        LatticeSpec(kind, dims)


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValidationError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 3)])


def test_edges_canonical_and_deduplicated():
    g = Graph(3, [(2, 1), (1, 2), (0, 2)])
    assert g.edges == ((0, 2), (1, 2))


@given(st.integers(0, 12), st.data())
@settings(max_examples=50, deadline=None)
def test_json_round_trip_is_identity(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, chosen)
    g2 = Graph.from_json(g.to_json())
    assert g2 == g
    assert json.loads(g.to_json())["edges"] == sorted(json.loads(g.to_json())["edges"])


def test_defects_rate_zero_and_one():
    spec = LatticeSpec("grid2d", [4, 4])
    g0, m0 = apply_site_defects(spec, 0.0, 7)
    assert g0 == build_lattice(spec) and not m0.removed
    g1, m1 = apply_site_defects(spec, 1.0, 7)
    assert g1.n_vertices == 0 and len(m1.removed) == 16


def test_defects_reproducible_and_binomial():
    spec = LatticeSpec("grid2d", [10, 10])
    g, m = apply_site_defects(spec, 0.4, 7)
    g2, m2 = apply_site_defects(spec, 0.4, 7)
    assert m.removed == m2.removed and g == g2
    assert 20 <= len(m.removed) <= 60      # ~Binomial(100, 0.4)


def test_defect_rate_mean_over_seeds():
    spec = LatticeSpec("grid2d", [10, 10])
    rate = 0.3
    n_seeds = 200
    fractions = [len(apply_site_defects(spec, rate, s)[1].removed) / 100
                 for s in range(n_seeds)]
    se = np.sqrt(rate * (1 - rate) / (100 * n_seeds))
    assert abs(np.mean(fractions) - rate) < 3 * se


def test_defects_bad_rate():
    with pytest.raises(ValidationError):
        apply_site_defects(LatticeSpec("grid2d", [3, 3]), 1.5, 0)


def test_full_grid_spans():
    spec = LatticeSpec("grid2d", [5, 5])
    assert has_spanning_cluster(build_lattice(spec), spec)


def test_removed_row_cuts_column_spanning():
    spec = LatticeSpec("grid2d", [5, 5])
    removed = frozenset(range(2 * 5, 3 * 5))     # entire middle row
    g = build_lattice(spec).without_vertices(removed)
    mask = DefectMask(removed, 0.2, 0)
    assert not has_spanning_cluster(g, spec, mask, axis="column")
    assert has_spanning_cluster(g, spec, mask, axis="row")


def test_spanning_rejects_mismatched_graph():
    spec = LatticeSpec("grid2d", [3, 3])
    with pytest.raises(ValidationError):
        has_spanning_cluster(Graph(5, []), spec)


def test_spanning_probability_monotone_small():
    spec = LatticeSpec("grid2d", [12, 12])
    seeds = list(range(60))
    probs = [spanning_probability(spec, r, seeds) for r in (0.05, 0.3, 0.7)]
    assert probs[0] >= probs[1] >= probs[2]
    assert probs[0] > 0.9 and probs[2] < 0.1


def test_spanning_probability_needs_a_seed():
    with pytest.raises(ValidationError):
        spanning_probability(LatticeSpec("grid2d", [3, 3]), 0.3, [])


def _bfs_spans(graph, spec, mask, axis):
    """Flood fill over the survivor graph from one boundary of the lattice."""
    r, c = spec.dims
    survivors = [v for v in range(r * c) if v not in mask.removed]
    coord = [divmod(v, c) for v in survivors]
    if axis == "column":
        start = {i for i, (row, _) in enumerate(coord) if row == 0}
        goal = {i for i, (row, _) in enumerate(coord) if row == r - 1}
    else:
        start = {i for i, (_, col) in enumerate(coord) if col == 0}
        goal = {i for i, (_, col) in enumerate(coord) if col == c - 1}
    adj = graph.adjacency()
    seen, todo = set(start), deque(start)
    while todo:
        for w in adj[todo.popleft()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return bool(seen & goal)


def _flood_spans(occ, axis):
    """Whether the occupied sites of ``occ`` (rows x cols) cross it, found by
    growing the set reached from the start boundary one 4-neighbour step at a
    time until it stops changing."""
    grid = occ if axis == "column" else occ.T
    reached = np.zeros_like(grid)
    reached[0] = grid[0]
    while True:
        grown = reached.copy()
        grown[1:] |= reached[:-1]
        grown[:-1] |= reached[1:]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= grid
        if np.array_equal(grown, reached):
            return bool(reached[-1].any())
        reached = grown


@given(st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.sampled_from(["row", "column"]))
@example(1, 1, 0.5, 3, "column")
@example(1, 12, 0.2, 5, "column")
@example(1, 12, 0.2, 5, "row")
@example(12, 1, 0.2, 5, "column")
@example(12, 1, 0.2, 5, "row")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_spans_matches_a_flood_fill(rows, cols, rate, seed, axis):
    """The run-labelling components agree with a plain flood fill on every
    shape from 1x1 to 12x12, at rates 0, 1 and in between, on both axes."""
    occ = np.random.default_rng(seed).random((rows, cols)) >= rate
    spec = LatticeSpec("grid2d", [rows, cols])
    assert _spans(occ.ravel(), spec, axis) == _flood_spans(occ, axis)


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.6, 1.0])
def test_spanning_probability_stays_within_its_memory_check(rate):
    """``SITE_BYTES`` per site, what is checked before the draw, bounds the
    traced peak of a draw and its spanning decision."""
    spec = LatticeSpec("grid2d", [300, 300])
    tracemalloc.start()
    try:
        spanning_probability(spec, rate, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SITE_BYTES * spec.n_vertices


@pytest.mark.parametrize("shape", SHAPES)
def test_grid_path_matches_graph_path(shape):
    spec = LatticeSpec("grid2d", list(shape))
    seeds = list(range(12))
    for rate in RATES:
        for axis in ("row", "column"):
            per_seed = []
            for s in seeds:
                g, m = apply_site_defects(spec, rate, s)
                grid = spanning_probability(spec, rate, [s], axis=axis)
                graph = has_spanning_cluster(g, spec, m, axis=axis)
                assert grid == float(graph) == float(_bfs_spans(g, spec, m, axis)), \
                    (shape, rate, axis, s)
                per_seed.append(graph)
            assert spanning_probability(spec, rate, seeds, axis=axis) == \
                sum(per_seed) / len(seeds)


@pytest.mark.parametrize("shape", SHAPES)
def test_defects_give_the_induced_subgraph_of_the_lattice(shape):
    spec = LatticeSpec("grid2d", list(shape))
    n = spec.n_vertices
    full = build_lattice(spec)
    for rate in RATES:
        for s in range(5):
            g, m = apply_site_defects(spec, rate, s)
            draw = make_rng(s).random(n)
            assert m.removed == {v for v in range(n) if draw[v] < rate}
            survivors = [v for v in range(n) if v not in m.removed]
            index = {v: i for i, v in enumerate(survivors)}
            assert g.n_vertices == len(survivors)
            assert set(g.edges) == {(index[a], index[b]) for a, b in full.edges
                                    if a in index and b in index}
