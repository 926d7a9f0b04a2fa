"""Graphs, standard lattices, and the site-percolation utility.

Every other module consumes these values.  A ``Graph`` is immutable after
construction: vertices are ``0..n-1`` and edges are stored canonically as
``(a, b)`` with ``a < b``, sorted, so equal graphs serialize identically.

Grid vertex indexing is row-major: on a ``grid2d`` with dims ``[r, c]`` the
site at row ``i``, column ``j`` has index ``i*c + j``; ``grid3d`` extends
this with the last axis fastest.  All lattices use open boundaries.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_memory, json_array, json_int, json_object
from .rng import make_rng

_LATTICE_KINDS = ("chain", "star", "grid2d", "grid3d")
_DIMS_LEN = {"chain": 1, "star": 1, "grid2d": 2, "grid3d": 3}
SITE_BYTES = 40     # peak bytes per site of a percolation draw and _spans (36 at rate 0)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n_vertices-1``."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]] = ()):
        if n_vertices < 0:
            raise ValidationError("n_vertices must be non-negative")
        canon = set()
        for e in edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            if not (0 <= a < n_vertices and 0 <= b < n_vertices):
                raise ValidationError(f"edge ({a},{b}) out of range for n={n_vertices}")
            canon.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "n_vertices", int(n_vertices))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        if not (0 <= v < self.n_vertices):
            raise ValidationError(f"vertex {v} out of range")
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists for all vertices (one pass over the edge set)."""
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def has_edge(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        return (a, b) in set(self.edges)

    def without_vertices(self, removed: Iterable[int]) -> "Graph":
        """Induced subgraph on the surviving vertices, reindexed densely.

        Survivors keep their relative order; the mapping is
        ``old -> rank of old among survivors``.
        """
        gone = set(removed)
        for v in gone:
            if not (0 <= v < self.n_vertices):
                raise ValidationError(f"removed vertex {v} out of range")
        keep = [v for v in range(self.n_vertices) if v not in gone]
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[a], index[b]) for a, b in self.edges
                 if a not in gone and b not in gone]
        return Graph(len(keep), edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n_vertices, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graph":
        try:
            d = json_object(d, ("n", "edges"), "graph JSON")
            n = json_int(d["n"], "graph n")
            return cls(n, [(json_int(a, "edge vertex"), json_int(b, "edge vertex"))
                           for a, b in json_array(d["edges"], "graph edges")])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad graph JSON: {exc}") from exc

    @classmethod
    def from_json(cls, s: str) -> "Graph":
        return cls.from_json_dict(json.loads(s))


@dataclass(frozen=True)
class LatticeSpec:
    """A named lattice: chain, star, grid2d or grid3d with positive dims.

    For ``star``, ``dims[0]`` is the number of leaves plus one (total
    vertex count); vertex 0 is the hub.
    """

    kind: str
    dims: tuple[int, ...]

    def __init__(self, kind: str, dims: Sequence[int]):
        if kind not in _LATTICE_KINDS:
            raise ValidationError(f"unknown lattice kind {kind!r}")
        dims = tuple(int(d) for d in dims)
        if len(dims) != _DIMS_LEN[kind]:
            raise ValidationError(
                f"{kind} takes {_DIMS_LEN[kind]} dims, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ValidationError("dims entries must be >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dims", dims)

    @property
    def n_vertices(self) -> int:
        return math.prod(self.dims)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LatticeSpec":
        try:
            d = json_object(d, ("kind", "dims"), "lattice JSON")
            return cls(d["kind"], [json_int(k, "lattice dims entry")
                                   for k in json_array(d["dims"], "lattice dims")])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad lattice JSON: {exc}") from exc


@dataclass(frozen=True)
class DefectMask:
    """Record of a seeded site-defect draw, reproducible from (rate, seed)."""

    removed: frozenset[int]
    defect_rate: float
    seed: int


def build_lattice(spec: LatticeSpec) -> Graph:
    """Build the named lattice graph with open boundaries.

    star -> hub 0 joined to each leaf.  chain, grid2d and grid3d share one
    rule on row-major indices: v joins v + stride along each axis while its
    coordinate + 1 < dim, where stride is the product of the later dims.
    """
    n = spec.n_vertices
    if spec.kind == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    idx = np.arange(n).reshape(spec.dims)
    edges: list[tuple[int, int]] = []
    for ax in range(idx.ndim):
        stride = int(np.prod(spec.dims[ax + 1:]))
        edges += [(v, v + stride) for v in np.delete(idx, -1, axis=ax).ravel().tolist()]
    return Graph(n, edges)


def _defect_hits(n: int, defect_rate: float, seed: int) -> np.ndarray:
    """The seeded site-defect draw: ``True`` at each removed site."""
    if not (0.0 <= defect_rate <= 1.0):
        raise ValidationError(f"defect_rate {defect_rate} outside [0, 1]")
    return make_rng(seed).random(n) < defect_rate


def apply_site_defects(spec: LatticeSpec, defect_rate: float, seed: int
                       ) -> tuple[Graph, DefectMask]:
    """Remove each lattice site independently with probability ``defect_rate``.

    Deterministic for fixed (spec, rate, seed); the returned graph is the
    induced subgraph on survivors with dense reindexing (use the mask to map
    back to lattice coordinates).
    """
    hits = _defect_hits(spec.n_vertices, defect_rate, seed)
    removed = frozenset(int(v) for v in np.flatnonzero(hits))
    return (build_lattice(spec).without_vertices(removed),
            DefectMask(removed, float(defect_rate), int(seed)))


def _spans(occupied: np.ndarray, spec: LatticeSpec, axis: str) -> bool:
    """Whether the occupied sites of a grid2d connect two opposite boundaries.

    ``occupied`` is one flag per site in row-major order.  Nodes are the
    horizontal runs of occupied sites, labelled by a cumulative sum of run
    starts, plus node 0 for the first row and ``end`` for the last; edges
    join vertically bonded runs and each boundary to its runs.  Rounds hook
    each root onto its least adjacent root, then jump pointers to the roots
    (Shiloach & Vishkin, J. Algorithms 3, 1982), until no edge joins two
    roots or ``end`` reaches node 0.
    """
    if spec.kind != "grid2d":
        raise ValidationError("spanning test is defined for grid2d lattices")
    occ = occupied.reshape(spec.dims)
    if axis == "row":
        occ = occ.T
    elif axis != "column":
        raise ValidationError(f"axis must be 'row' or 'column', got {axis!r}")
    start = occ.copy()
    start[:, 1:] &= ~occ[:, :-1]
    label = np.cumsum(start, axis=None).reshape(occ.shape)
    end, bond = int(label[-1, -1]) + 1, occ[:-1] & occ[1:]
    first, last = label[0][start[0]], label[-1][start[-1]]
    lo = np.concatenate([np.zeros_like(first), label[:-1][bond], last])
    hi = np.concatenate([first, label[1:][bond], np.full_like(last, end)])
    del start, label, bond
    root = np.arange(end + 1)
    while lo.size and root[end]:
        lo, hi = root[lo], root[hi]
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        np.minimum.at(root, np.maximum(lo, hi), np.minimum(lo, hi))
        while not np.array_equal(jump := root[root], root):
            root = jump
    return not root[end]


def has_spanning_cluster(graph: Graph, spec: LatticeSpec, mask: DefectMask | None = None,
                         axis: str = "column") -> bool:
    """Decide whether surviving sites connect the two opposite boundaries.

    ``graph`` must be the induced subgraph of ``build_lattice(spec)`` under
    ``mask`` (mask None means no removals).  Axis ``column`` asks for a
    top-to-bottom crossing, ``row`` for left-to-right.
    """
    removed = mask.removed if mask is not None else frozenset()
    if graph != build_lattice(spec).without_vertices(removed):
        raise ValidationError("graph is not the induced subgraph of the lattice")
    return _spans(~np.isin(np.arange(spec.n_vertices), list(removed)), spec, axis)


def spanning_probability(spec: LatticeSpec, defect_rate: float, seeds: Sequence[int],
                         axis: str = "column") -> float:
    """Fraction of seeds whose defect draw still spans the lattice.

    Each seed makes the draw ``apply_site_defects`` makes and decides on the
    occupancy grid, building no ``Graph``; ``SITE_BYTES`` per site are checked first.
    """
    if len(seeds) < 1:
        raise ValidationError(f"need at least one seed, got {len(seeds)}")
    check_memory(spec.n_vertices * SITE_BYTES, f"a {spec.n_vertices}-site percolation grid")
    hits = sum(_spans(~_defect_hits(spec.n_vertices, defect_rate, s), spec, axis)
               for s in seeds)
    return hits / len(seeds)
