"""Surface-code slices carved out of 2D cluster states.

Geometry: an r x c code lattice has (r+1)(c+1) sites, r*c faces, and one
code qubit per lattice edge.  The slice cluster places a qubit on every
edge (code), every site (site-syndrome), and every face
(plaquette-syndrome); each syndrome qubit is linked to exactly the code
qubits on its incident/boundary edges.

Projection: site-syndromes are measured in Z (removing them, the
cluster-surgery primitive), plaquette-syndromes in X.  The surviving
stabilizer group on the code qubits then contains, with no Hadamard
dressing,

* ``A_s`` (X on the edges at site s) with sign
  ``(-1)^{deg(s) m_s + sum_{s'~s} m_{s'}}`` from the site outcomes, and
* ``B_p`` (Z on the edges of face p) with sign ``(-1)^{m_p}``,

because ``prod_{e at s} K_e`` survives as A_s once the measured site
ancillas are folded in, and ``K_p`` folds with the face outcome into
B_p.  These sign rules are frozen here and verified against both
backends in the tests.

Holes: a magnetic hole at face p re-bases that ancilla to Z (B_p never
read out); an electric hole pair occupies two adjacent sites and is
carved by Z-measuring their shared code qubit, which destroys exactly
those two A_s.  Logical operators follow the
string/loop geometry: electric pairs get a Z-string between the holes
and the X-star loop around one hole; magnetic pairs get the Z-loop
around one hole and an X-string along a dual path between them.

Teleportation: a second layer of code qubits, each linked only to its
slice-1 partner, receives the projected code state under per-qubit
Hadamards once the slice-1 code qubits are measured in X; every imposed
check transports with the outcome signs predicted by H-conjugation.

Both run one measurement pass, ``_measure_slice``: site ancillas in Z
(row-major), face ancillas in their planned basis, the plan's ``code_z``
in Z, then any extra measurements (teleportation's slice-1 X layer), all
drawn from one ``OutcomeSource`` in that order.  Both then check signs
through one loop, ``_sign_failures``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .errors import ValidationError, json_int, json_object
from .graphs import Graph
from .pauli import PauliString, symplectic_rank
from .rng import OutcomeSource, as_outcome_source
from .tableau import Tableau, extract_subtableau, graph_state_tableau


@dataclass(frozen=True)
class SliceLayout:
    """Code-lattice dimensions plus the fixed slice-qubit enumeration.

    Cluster indexing: code qubits come first (all horizontal edges in
    row-major order, then all vertical edges row-major), then
    site-syndromes row-major, then plaquette-syndromes row-major.
    """

    code_rows: int
    code_cols: int

    def __post_init__(self):
        if self.code_rows < 1 or self.code_cols < 1:
            raise ValidationError("code lattice dimensions must be >= 1")

    # -- counts -------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return (self.code_rows + 1) * (self.code_cols + 1)

    @property
    def n_faces(self) -> int:
        return self.code_rows * self.code_cols

    @property
    def n_horizontal(self) -> int:
        return (self.code_rows + 1) * self.code_cols

    @property
    def n_code(self) -> int:
        return self.n_horizontal + self.code_rows * (self.code_cols + 1)

    @property
    def n_cluster(self) -> int:
        return self.n_code + self.n_sites + self.n_faces

    # -- index maps ----------------------------------------------------------

    def hedge(self, i: int, j: int) -> int:
        """Code qubit on the horizontal edge (i,j)-(i,j+1)."""
        if not (0 <= i <= self.code_rows and 0 <= j < self.code_cols):
            raise ValidationError(f"horizontal edge ({i},{j}) out of range")
        return i * self.code_cols + j

    def vedge(self, i: int, j: int) -> int:
        """Code qubit on the vertical edge (i,j)-(i+1,j)."""
        if not (0 <= i < self.code_rows and 0 <= j <= self.code_cols):
            raise ValidationError(f"vertical edge ({i},{j}) out of range")
        return self.n_horizontal + i * (self.code_cols + 1) + j

    def site_qubit(self, i: int, j: int) -> int:
        if not (0 <= i <= self.code_rows and 0 <= j <= self.code_cols):
            raise ValidationError(f"site ({i},{j}) out of range")
        return self.n_code + i * (self.code_cols + 1) + j

    def face_qubit(self, i: int, j: int) -> int:
        if not (0 <= i < self.code_rows and 0 <= j < self.code_cols):
            raise ValidationError(f"face ({i},{j}) out of range")
        return self.n_code + self.n_sites + i * self.code_cols + j

    def site_edges(self, i: int, j: int) -> list[int]:
        """Code qubits on the edges incident to site (i,j)."""
        out = []
        if j > 0:
            out.append(self.hedge(i, j - 1))
        if j < self.code_cols:
            out.append(self.hedge(i, j))
        if i > 0:
            out.append(self.vedge(i - 1, j))
        if i < self.code_rows:
            out.append(self.vedge(i, j))
        return sorted(out)

    def face_edges(self, i: int, j: int) -> list[int]:
        """Code qubits on the boundary edges of face (i,j)."""
        return sorted([self.hedge(i, j), self.hedge(i + 1, j),
                       self.vedge(i, j), self.vedge(i, j + 1)])

    def site_degree(self, i: int, j: int) -> int:
        return len(self.site_edges(i, j))

    def site_neighbors(self, i: int, j: int) -> list[tuple[int, int]]:
        out = []
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ni, nj = i + di, j + dj
            if 0 <= ni <= self.code_rows and 0 <= nj <= self.code_cols:
                out.append((ni, nj))
        return out

    def all_sites(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.code_rows + 1)
                for j in range(self.code_cols + 1)]

    def all_faces(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.code_rows)
                for j in range(self.code_cols)]

    def shared_edge(self, s0: tuple[int, int], s1: tuple[int, int]) -> int:
        """Code qubit on the edge joining two adjacent sites."""
        (i0, j0), (i1, j1) = sorted((tuple(s0), tuple(s1)))
        if (i0, j0) == (i1, j1):
            raise ValidationError("sites coincide")
        if i0 == i1 and j1 == j0 + 1:
            return self.hedge(i0, j0)
        if j0 == j1 and i1 == i0 + 1:
            return self.vedge(i0, j0)
        raise ValidationError(f"sites {s0} and {s1} are not adjacent")

    def to_json_dict(self) -> dict:
        return {"code_rows": self.code_rows, "code_cols": self.code_cols}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SliceLayout":
        try:
            d = json_object(d, ("code_rows", "code_cols"), "layout JSON")
            return cls(json_int(d["code_rows"], "code_rows"),
                       json_int(d["code_cols"], "code_cols"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad layout JSON: {exc}") from exc


def build_slice_cluster(layout: SliceLayout) -> Graph:
    """Cluster graph of one slice: syndrome qubits linked to their edges."""
    edges = []
    for (i, j) in layout.all_sites():
        u = layout.site_qubit(i, j)
        for e in layout.site_edges(i, j):
            edges.append((e, u))
    for (i, j) in layout.all_faces():
        u = layout.face_qubit(i, j)
        for e in layout.face_edges(i, j):
            edges.append((e, u))
    return Graph(layout.n_cluster, edges)


@dataclass(frozen=True)
class HoleSpec:
    """Hole positions: electric at sites, magnetic at faces (pairs)."""

    electric: tuple[tuple[int, int], ...] = ()
    magnetic: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "electric",
                           tuple(tuple(p) for p in self.electric))
        object.__setattr__(self, "magnetic",
                           tuple(tuple(p) for p in self.magnetic))

    def to_json_dict(self) -> dict:
        return {"electric": [list(p) for p in self.electric],
                "magnetic": [list(p) for p in self.magnetic]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HoleSpec":
        json_object(d, (), "holes JSON", ("electric", "magnetic"))
        fields = [d.get(k, []) for k in ("electric", "magnetic")]
        if not all(isinstance(f, list) and all(isinstance(p, list) and len(p) == 2 for p in f)
                   for f in fields):
            raise ValidationError("bad holes JSON: electric and magnetic must be "
                                  "lists of [i, j] integer pairs")
        return cls(*([[json_int(x, "hole coordinate") for x in p] for p in f] for f in fields))


@dataclass
class MeasurementPlan:
    """Which basis each ancilla gets, plus code qubits removed by Z."""

    face_bases: dict[tuple[int, int], str]
    code_z: tuple[int, ...]
    absent_checks: tuple[tuple[str, tuple[int, int]], ...]


def carve_holes(layout: SliceLayout, holes: HoleSpec) -> MeasurementPlan:
    """Plan the measurement-basis changes that carve the requested holes.

    Magnetic hole at p: its plaquette ancilla is measured in Z instead of
    X, so B_p is never read out.  An electric pair must occupy two
    adjacent sites; Z-measuring their shared code qubit destroys exactly
    those two A_s.  Supported hole counts per type: 0 or 2.
    """
    for (i, j) in holes.electric:
        if not (0 <= i <= layout.code_rows and 0 <= j <= layout.code_cols):
            raise ValidationError(f"electric hole {(i, j)} outside the lattice")
    for (i, j) in holes.magnetic:
        if not (0 <= i < layout.code_rows and 0 <= j < layout.code_cols):
            raise ValidationError(f"magnetic hole {(i, j)} outside the lattice")
    if len(set(holes.electric)) != len(holes.electric):
        raise ValidationError("duplicate electric holes")
    if len(set(holes.magnetic)) != len(holes.magnetic):
        raise ValidationError("duplicate magnetic holes")
    if len(holes.electric) not in (0, 2) or len(holes.magnetic) not in (0, 2):
        raise ValidationError("holes are carved in pairs (0 or 2 per type)")

    face_bases = {f: "X" for f in layout.all_faces()}
    absent: list[tuple[str, tuple[int, int]]] = []
    code_z: list[int] = []
    if holes.magnetic:
        for p in holes.magnetic:
            face_bases[p] = "Z"
            absent.append(("B", p))
    if holes.electric:
        s0, s1 = holes.electric
        code_z.append(layout.shared_edge(s0, s1))   # adjacency required
        absent.append(("A", s0))
        absent.append(("A", s1))
    return MeasurementPlan(face_bases, tuple(code_z), tuple(absent))


def check_operator(layout: SliceLayout, kind: str, pos: tuple[int, int],
                   n_qubits: Optional[int] = None) -> PauliString:
    """A_s (X-star) or B_p (Z-plaquette) over the code qubits.

    ``n_qubits`` embeds the operator into a larger register (identity
    elsewhere) when checking membership in a full slice tableau.
    """
    n = layout.n_code if n_qubits is None else n_qubits
    if kind == "A":
        return PauliString.from_support(n, x_on=layout.site_edges(*pos))
    if kind == "B":
        return PauliString.from_support(n, z_on=layout.face_edges(*pos))
    raise ValidationError("check kind must be 'A' or 'B'")


def predicted_sign(layout: SliceLayout, kind: str, pos: tuple[int, int],
                   outcomes: dict[int, int]) -> int:
    """Frozen outcome-to-sign rule for a projected check (see module doc)."""
    i, j = pos
    if kind == "B":
        m = outcomes[layout.face_qubit(i, j)]
        return -1 if m else +1
    exp = (layout.site_degree(i, j) & 1) * outcomes[layout.site_qubit(i, j)]
    for (ni, nj) in layout.site_neighbors(i, j):
        exp ^= outcomes[layout.site_qubit(ni, nj)]
    return -1 if (exp & 1) else +1


@dataclass
class ProjectionResult:
    outcomes: dict[int, int]                  # cluster qubit -> measured bit
    code_tableau: Tableau                     # state restricted to code qubits
    plan: MeasurementPlan
    layout: SliceLayout

    def check_sign(self, kind: str, pos: tuple[int, int]) -> Optional[int]:
        """Measured membership sign of a check in the projected group."""
        op = check_operator(self.layout, kind, pos)
        return self.code_tableau.stabilizer_group_contains(op)


def _measure_slice(layout: SliceLayout, plan: MeasurementPlan, graph: Graph,
                   keep: Sequence[int], src: OutcomeSource,
                   extra: Sequence[tuple[int, str]] = ()
                   ) -> tuple[dict[int, int], Tableau]:
    """The one slice measurement pass: sites in Z, faces in their planned
    basis, ``plan.code_z`` in Z, then ``extra`` (qubit, basis) pairs, in
    that order on ``graph``'s state; returns the outcomes and the state
    restricted to ``keep``."""
    order = ([(layout.site_qubit(*s), "Z") for s in layout.all_sites()]
             + [(layout.face_qubit(*f), plan.face_bases[f]) for f in layout.all_faces()]
             + [(e, "Z") for e in plan.code_z] + list(extra))
    t = graph_state_tableau(graph)
    outcomes = {q: t.measure_pauli(basis, q, src) for q, basis in order}
    return outcomes, extract_subtableau(t, keep)


def project_syndrome_layer(layout: SliceLayout,
                           randomness: Union[int, OutcomeSource, None] = None,
                           plan: Optional[MeasurementPlan] = None,
                           forced: Optional[dict[int, int]] = None) -> ProjectionResult:
    """Measure the slice ancillas (sites in Z, faces per plan) in the
    tableau backend and return the projected code-qubit state."""
    if plan is None:
        plan = carve_holes(layout, HoleSpec())
    outcomes, code_tab = _measure_slice(layout, plan, build_slice_cluster(layout),
                                        list(range(layout.n_code)),
                                        as_outcome_source(randomness, forced=forced))
    return ProjectionResult(outcomes, code_tab, plan, layout)


def present_checks(layout: SliceLayout, plan: MeasurementPlan
                   ) -> list[tuple[str, tuple[int, int]]]:
    absent = set(plan.absent_checks)
    out = [("A", s) for s in layout.all_sites() if ("A", s) not in absent]
    out += [("B", f) for f in layout.all_faces() if ("B", f) not in absent]
    return out


def imposed_rank(layout: SliceLayout, plan: MeasurementPlan) -> int:
    """GF(2) rank of the imposed (non-holed) check set."""
    ops = [check_operator(layout, kind, pos)
           for kind, pos in present_checks(layout, plan)]
    return symplectic_rank(ops)


def _sign_failures(tab: Tableau,
                   checks: Sequence[tuple[str, PauliString, Optional[int]]]) -> list[dict]:
    """The one sign-check loop over (label, operator, wanted sign or None
    for a holed check that must be absent) triples."""
    failures = []
    for label, op, want in checks:
        got = tab.stabilizer_group_contains(op)
        if got != want:
            failures.append({"check": label, "got": got, "want": want} if want is not None
                            else {"check": label, "got": "present", "want": "absent"})
    return failures


def verify_projection(result: ProjectionResult) -> dict:
    """Membership + sign check for every non-holed stabilizer, absence for
    holed ones; returns a report dict (used by tests and the CLI)."""
    layout, plan = result.layout, result.plan
    checks = [(f"{kind}{pos}", check_operator(layout, kind, pos),
               predicted_sign(layout, kind, pos, result.outcomes))
              for kind, pos in present_checks(layout, plan)]
    checks += [(f"{kind}{pos}", check_operator(layout, kind, pos), None)
               for kind, pos in plan.absent_checks]
    failures = _sign_failures(result.code_tableau, checks)
    return {"passed": not failures, "failures": failures, "n_checks": len(checks)}


# -- logical operators -------------------------------------------------------

def _shortest_path(start: tuple[int, int], goal: tuple[int, int],
                   sorted_neighbors: Callable[[tuple[int, int]], list[tuple[int, int]]],
                   missing: str) -> list[tuple[int, int]]:
    """Shortest path by BFS; visiting neighbours in sorted order fixes the
    tie-break.  Raises ValidationError(``missing``) when ``goal`` is unreachable."""
    prev: dict[tuple[int, int], tuple[int, int]] = {start: start}
    dq = deque([start])
    while dq:
        cur = dq.popleft()
        if cur == goal:
            break
        for nxt in sorted_neighbors(cur):
            if nxt not in prev:
                prev[nxt] = cur
                dq.append(nxt)
    if goal not in prev:
        raise ValidationError(missing)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path[::-1]


def _face_neighbors(layout: SliceLayout, f: tuple[int, int]) -> list[tuple[int, int]]:
    """Faces sharing an edge with ``f``, sorted."""
    i, j = f
    return sorted((a, b) for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                  if 0 <= a < layout.code_rows and 0 <= b < layout.code_cols)


def _face_shared_edge(layout: SliceLayout, f0: tuple[int, int],
                      f1: tuple[int, int]) -> int:
    (i0, j0), (i1, j1) = sorted((f0, f1))
    if i0 == i1 and j1 == j0 + 1:
        return layout.vedge(i0, j1)
    if j0 == j1 and i1 == i0 + 1:
        return layout.hedge(i1, j0)
    raise ValidationError(f"faces {f0} and {f1} are not adjacent")


def logical_operators(layout: SliceLayout, holes: HoleSpec, kind: str,
                      path: Optional[Sequence[tuple[int, int]]] = None
                      ) -> tuple[PauliString, PauliString]:
    """(Z-bar, X-bar) for the requested encoded qubit, as code-qubit Paulis.

    Electric pair {s, s'}: Z-bar is a Z-string along a site path from s
    to s' (default: the shared edge), X-bar the X-star loop around s.
    Magnetic pair {p, p'}: Z-bar is the Z-loop around p (its plaquette),
    X-bar an X-string along a dual path from p to p'.  ``path`` overrides
    the auto-routed site path (electric) or face path (magnetic).
    """
    if kind not in ("electric", "magnetic"):
        raise ValidationError("encoded qubit kind must be 'electric' or 'magnetic'")
    pair = getattr(holes, kind)
    if len(pair) != 2:
        raise ValidationError(f"{kind} qubit needs exactly two {kind} holes")
    h0, h1 = pair
    electric = kind == "electric"
    neighbors, join = ((lambda s: sorted(layout.site_neighbors(*s)), layout.shared_edge)
                       if electric else
                       (partial(_face_neighbors, layout), partial(_face_shared_edge, layout)))
    cells = ([tuple(p) for p in path] if path else
             _shortest_path(h0, h1, neighbors, f"no path between the {kind} holes"))
    if cells[0] != h0 or cells[-1] != h1:
        raise ValidationError("path must run from the first hole to the second")
    edges = [join(a, b) for a, b in zip(cells, cells[1:])]
    loop = check_operator(layout, "A" if electric else "B", h0)
    if electric:
        return PauliString.from_support(layout.n_code, z_on=edges), loop
    return loop, PauliString.from_support(layout.n_code, x_on=edges)


# -- slice-to-slice teleportation ---------------------------------------------

def build_two_slice_cluster(layout: SliceLayout,
                            drop_link: Optional[int] = None) -> Graph:
    """Slice 1 (full) plus a second layer of code qubits, each linked to
    its slice-1 partner; ``drop_link`` removes one inter-slice edge (the
    negative control)."""
    n1 = layout.n_cluster
    edges = list(build_slice_cluster(layout).edges)
    edges += [(e, n1 + e) for e in range(layout.n_code) if e != drop_link]
    return Graph(n1 + layout.n_code, edges)


@dataclass
class TeleportReport:
    passed: bool
    failures: list[dict]
    outcomes: dict[int, int]
    n_checks: int


def teleport_slice(layout: SliceLayout,
                   randomness: Union[int, OutcomeSource, None] = None,
                   forced: Optional[dict[int, int]] = None,
                   drop_link: Optional[int] = None) -> TeleportReport:
    """Project slice 1, X-measure its code qubits, and verify that every
    check lands on slice 2 Hadamard-conjugated with the predicted signs."""
    n1 = layout.n_cluster
    plan = carve_holes(layout, HoleSpec())
    outcomes, code_tab = _measure_slice(
        layout, plan, build_two_slice_cluster(layout, drop_link=drop_link),
        [n1 + e for e in range(layout.n_code)], as_outcome_source(randomness, forced=forced),
        extra=[(e, "X") for e in range(layout.n_code)])
    checks = []
    for kind, pos in present_checks(layout, plan):
        base = check_operator(layout, kind, pos)
        # transport: H per qubit (X<->Z) and an X^w sign for the X-support
        w = sum(outcomes[e] for e in layout.site_edges(*pos)) if kind == "A" else 0
        checks.append((f"{kind}{pos}", PauliString(layout.n_code, base.z, base.x),
                       predicted_sign(layout, kind, pos, outcomes) * (-1) ** w))
    failures = _sign_failures(code_tab, checks)
    return TeleportReport(not failures, failures, outcomes, len(checks))
