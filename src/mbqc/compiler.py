"""Translate small gate circuits into cluster measurement patterns.

Layout: logical qubit r starts on grid row r; columns grow with circuit
depth.  Every row is a full-width horizontal cluster chain, so sites past
a wire's end are genuinely entangled and must be removed by Z
measurements (the trailing Z commands every compile emits).  Vertical
edges appear only where an entangling gadget uses them.

The building block is the wire segment J(a) = H Rz(a), realized by one
XY measurement at angle -a with sign adaptivity on the wire's
accumulated X byproduct.  Each column step applies exactly one Hadamard,
which ties a wire's column parity to its Hadamard parity; entangling
primitives are parity-locked as a result:

* a vertical edge between equal columns applies CZ,
* a vertical edge one column ahead of a transporting wire applies CNOT
  (the junction lands between two transport Hadamards).

Logical H gates are therefore tracked as pending per-wire flags (zero
cost) rather than executed; rotations conjugate through a pending flag
(Rz and Rx swap), and each entangling gate is dispatched onto whichever
primitive realizes it under the current flag/parity state.  Blocked
states are repaired with the cheapest mix of explicit flag toggles
(one J(0) segment) and a parity shim J(pi/2)^3, which is proportional
to the identity but advances an odd number of columns.

Byproducts are tracked symbolically as per-wire sets of outcome sites
whose XOR gives the X/Z frame exponents; at the end these become the
pattern's correction table, which is what makes ``check_determinism``
pass on every branch.  Distant qubit pairs are routed by logical SWAPs
(three CNOTs per hop) with the row assignment left permuted and
recorded in ``output_map``.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CapacityError, ValidationError, json_array, json_int, json_number,
                     json_object)
from .graphs import Graph
from .engine import MeasurementCommand, MeasurementPattern
from .statevector import (DEFAULT_CAP, StateVector, apply_cz, apply_local)

_SUPPORTED = {"H", "S", "Rz", "Rx", "CZ", "CNOT"}
_SQ_GATES = {"H", "S", "Rz", "Rx"}
_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class GateOp:
    name: str
    qubits: tuple[int, ...]
    theta: float = 0.0

    def __post_init__(self):
        if self.name not in _SUPPORTED:
            raise ValidationError(f"unsupported gate {self.name!r}")
        want = 1 if self.name in _SQ_GATES else 2
        if len(self.qubits) != want:
            raise ValidationError(f"{self.name} takes {want} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"{self.name} targets must be distinct")
        if not math.isfinite(self.theta):
            raise ValidationError("angle must be finite")


class Circuit:
    """Ordered gate list over ``n_logical`` qubits."""

    def __init__(self, n_logical: int, gates: Sequence[GateOp] = ()):
        if n_logical < 1:
            raise ValidationError("need at least one logical qubit")
        self.n_logical = int(n_logical)
        self.gates = tuple(gates)
        for g in self.gates:
            for q in g.qubits:
                if not (0 <= q < self.n_logical):
                    raise ValidationError(f"gate {g.name} targets qubit {q} out of range")

    def to_json_dict(self) -> dict:
        out = []
        for g in self.gates:
            d = {"g": g.name, "q": list(g.qubits)}
            if g.name in ("Rz", "Rx"):
                d["theta"] = g.theta
            out.append(d)
        return {"n": self.n_logical, "gates": out}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Circuit":
        try:
            d = json_object(d, ("n", "gates"), "circuit JSON")
            gates = [GateOp(g["g"], tuple(json_int(q, "gate qubit")
                                          for q in json_array(g["q"], "gate qubits")),
                            json_number(g.get("theta", 0.0), "gate theta"))
                     for g in (json_object(g, ("g", "q"), "circuit gate", ("theta",))
                               for g in json_array(d["gates"], "circuit gates"))]
            return cls(json_int(d["n"], "circuit n"), gates)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad circuit JSON: {exc}") from exc

    @classmethod
    def from_json(cls, s: str) -> "Circuit":
        return cls.from_json_dict(json.loads(s))


@dataclass
class CompiledProgram:
    pattern: MeasurementPattern
    site_layout: dict[int, int]      # logical qubit -> grid row holding its output
    output_map: dict[int, int]       # logical qubit -> output site index
    n_rows: int = 0
    n_cols: int = 0


class _Wire:
    __slots__ = ("col", "flag", "x_set", "z_set")

    def __init__(self):
        self.col = 0
        self.flag = 0                 # pending logical Hadamard
        self.x_set: frozenset = frozenset()
        self.z_set: frozenset = frozenset()


# Realizable (flag_a, flag_b, column-parity-gap) states per intended gate.
# "direct" is a same-column vertical edge (physical CZ); "bridge" is the
# junction one column ahead of a transporting wire (physical CNOT,
# stationary wire is the control).
_CZ_STATES = {(0, 0, 0): ("direct", None),
              (0, 1, 1): ("bridge", "ab"),
              (1, 0, 1): ("bridge", "ba")}
_CNOT_STATES = {(0, 0, 1): ("bridge", "ab"),
                (0, 1, 0): ("direct", None),
                (1, 1, 1): ("bridge", "ba")}


def _normalize_moves(state: tuple[int, int, int], targets) -> list[str]:
    """Cheapest toggle/shim sequence into a realizable state (Dijkstra on 8 states).

    Moves: 'Ta'/'Tb' toggle a flag with one J(0) segment (flips parity too);
    'S' is the 3-segment identity shim (flips parity only).
    """
    if state in targets:
        return []
    dist = {state: (0, [])}
    heap = [(0, state, [])]
    while heap:
        cost, s, path = heapq.heappop(heap)
        if s in targets:
            return path
        if cost > dist.get(s, (1 << 30, None))[0]:
            continue
        ha, hb, d = s
        for move, nxt, c in (("Ta", (ha ^ 1, hb, d ^ 1), 1),
                             ("Tb", (ha, hb ^ 1, d ^ 1), 1),
                             ("S", (ha, hb, d ^ 1), 3)):
            nc = cost + c
            if nc < dist.get(nxt, (1 << 30, None))[0]:
                dist[nxt] = (nc, path + [move])
                heapq.heappush(heap, (nc, nxt, path + [move]))
    raise ValidationError("no normalization path")   # unreachable: graph is connected


class _Builder:
    def __init__(self, n_rows: int):
        self.wires = [_Wire() for _ in range(n_rows)]
        self.commands: list[tuple] = []       # ((row,col), plane, angle, s_deps)
        self.vertical_edges: list[tuple] = []
        self._edge_set: set = set()
        self.logical_at_row = list(range(n_rows))
        self.row_of = list(range(n_rows))
        self.n_primitives = 0

    def segment(self, r: int, alpha: float) -> None:
        """One physical J(alpha) step on row r."""
        w = self.wires[r]
        site = (r, w.col)
        s_deps = w.x_set if abs(alpha) > 1e-15 else frozenset()
        self.commands.append((site, "XY", -alpha, s_deps))
        w.x_set, w.z_set = w.z_set ^ frozenset([site]), w.x_set
        w.col += 1
        self.n_primitives += 1

    def toggle_flag(self, r: int) -> None:
        """Physical H (one segment) absorbed into the pending flag."""
        self.segment(r, 0.0)
        self.wires[r].flag ^= 1

    def shim(self, r: int) -> None:
        """J(pi/2)^3: identity up to phase, advances three columns."""
        for _ in range(3):
            self.segment(r, _HALF_PI)

    def pad_to(self, r: int, target: int) -> None:
        delta = target - self.wires[r].col
        if delta < 0 or delta % 2:
            raise ValidationError("padding must be a forward even number of columns")
        for _ in range(0, delta, 2):
            self.segment(r, 0.0)
            self.segment(r, 0.0)

    def _direct_cz(self, ra: int, rb: int) -> None:
        wa, wb = self.wires[ra], self.wires[rb]
        target = max(wa.col, wb.col)
        # a repeated junction at the same sites would cancel (CZ^2 = I)
        while ((ra, target), (rb, target)) in self._edge_set:
            target += 2
        self.pad_to(ra, target)
        self.pad_to(rb, target)
        self.vertical_edges.append(((ra, target), (rb, target)))
        self._edge_set.add(((ra, target), (rb, target)))
        self._edge_set.add(((rb, target), (ra, target)))
        wa.z_set, wb.z_set = wa.z_set ^ wb.x_set, wb.z_set ^ wa.x_set
        self.n_primitives += 1

    def _bridge_cnot(self, stat: int, move: int) -> None:
        """Physical CNOT(control=stat, target=move): junction mid-transport."""
        ws, wm = self.wires[stat], self.wires[move]
        if wm.col < ws.col - 1:
            self.pad_to(move, ws.col - 1)
        elif wm.col >= ws.col:
            self.pad_to(stat, wm.col + 1)
        assert ws.col == wm.col + 1
        t = (move, wm.col)
        mid = (move, wm.col + 1)
        self.vertical_edges.append(((stat, ws.col), mid))
        self.commands.append((t, "XY", 0.0, frozenset()))
        self.commands.append((mid, "XY", 0.0, frozenset()))
        # transport, junction CZ, transport: byproducts fold accordingly
        new_xm = wm.x_set ^ ws.x_set ^ frozenset([mid])
        new_zm = wm.z_set ^ frozenset([t])
        ws.z_set = ws.z_set ^ wm.z_set ^ frozenset([t])
        wm.x_set, wm.z_set = new_xm, new_zm
        wm.col += 2
        self.n_primitives += 3

    def entangle(self, ra: int, rb: int, kind: str) -> None:
        """Intended CZ or CNOT(ra -> rb) on adjacent rows, any flag state."""
        if abs(ra - rb) != 1:
            raise ValidationError("vertical link needs adjacent rows")
        targets = _CZ_STATES if kind == "CZ" else _CNOT_STATES
        wa, wb = self.wires[ra], self.wires[rb]
        state = (wa.flag, wb.flag, (wa.col + wb.col) & 1)
        for move in _normalize_moves(state, targets):
            if move == "Ta":
                self.toggle_flag(ra)
            elif move == "Tb":
                self.toggle_flag(rb)
            else:
                self.shim(ra if wa.col <= wb.col else rb)
        state = (wa.flag, wb.flag, (wa.col + wb.col) & 1)
        primitive, direction = targets[state]
        if primitive == "direct":
            self._direct_cz(ra, rb)
        elif direction == "ab":
            self._bridge_cnot(ra, rb)
        else:
            self._bridge_cnot(rb, ra)

    def rotation(self, r: int, axis: str, alpha: float) -> None:
        """Intended Rz/Rx; a pending flag swaps the axis physically."""
        physical = axis if not self.wires[r].flag else ("Rx" if axis == "Rz" else "Rz")
        if physical == "Rz":
            self.segment(r, alpha)
            self.segment(r, 0.0)
        else:
            self.segment(r, 0.0)
            self.segment(r, alpha)

    def cnot(self, control: int, target: int) -> None:
        self.entangle(control, target, "CNOT")

    def swap_rows(self, ra: int, rb: int) -> None:
        """Logical SWAP of two adjacent rows; leaves the assignment permuted."""
        self.cnot(ra, rb)
        self.cnot(rb, ra)
        self.cnot(ra, rb)
        la, lb = self.logical_at_row[ra], self.logical_at_row[rb]
        self.logical_at_row[ra], self.logical_at_row[rb] = lb, la
        self.row_of[la], self.row_of[lb] = rb, ra

    def bring_adjacent(self, la: int, lb: int) -> tuple[int, int]:
        """Swap lb's row stepwise toward la; returns the two rows."""
        while abs(self.row_of[la] - self.row_of[lb]) > 1:
            rb = self.row_of[lb]
            step = rb - 1 if self.row_of[la] < rb else rb + 1
            self.swap_rows(rb, step)
        return self.row_of[la], self.row_of[lb]


def compile_circuit(c: Circuit) -> CompiledProgram:
    """Compile to a cluster pattern whose branches all frame-correct to the
    circuit's output (``simulate_circuit`` is the independent oracle)."""
    b = _Builder(c.n_logical)
    for g in c.gates:
        if g.name == "H":
            b.wires[b.row_of[g.qubits[0]]].flag ^= 1
        elif g.name == "S":
            b.rotation(b.row_of[g.qubits[0]], "Rz", _HALF_PI)
        elif g.name == "Rz":
            b.rotation(b.row_of[g.qubits[0]], "Rz", g.theta)
        elif g.name == "Rx":
            b.rotation(b.row_of[g.qubits[0]], "Rx", g.theta)
        else:
            ra, rb = b.bring_adjacent(g.qubits[0], g.qubits[1])
            b.entangle(ra, rb, "CZ" if g.name == "CZ" else "CNOT")
    for r in range(c.n_logical):
        if b.wires[r].flag:
            b.toggle_flag(r)

    n_rows = c.n_logical
    n_cols = max(w.col for w in b.wires) + 1
    if n_cols > 1 + max(1, b.n_primitives):
        raise CapacityError("compiled width exceeded the documented bound")

    def site_id(rc: tuple[int, int]) -> int:
        return rc[0] * n_cols + rc[1]

    edges = []
    for r in range(n_rows):
        for col in range(n_cols - 1):
            edges.append((site_id((r, col)), site_id((r, col + 1))))
    for u, v in b.vertical_edges:
        edges.append((site_id(u), site_id(v)))
    resource = Graph(n_rows * n_cols, edges)

    commands = [MeasurementCommand(site_id(site), plane, angle,
                                   frozenset(site_id(s) for s in s_deps))
                for site, plane, angle, s_deps in b.commands]

    # trailing sites: remove by Z measurement, left to right; only the site
    # next to a wire end leaves a byproduct on an output
    corrections: dict[int, dict[str, list[int]]] = {}
    output_map = {}
    for logical in range(c.n_logical):
        r = b.row_of[logical]
        output_map[logical] = site_id((r, b.wires[r].col))
    for r in range(n_rows):
        end = b.wires[r].col
        out_site = site_id((r, end))
        for col in range(end + 1, n_cols):
            commands.append(MeasurementCommand(site_id((r, col)), "Z"))
            if col == end + 1:
                corrections.setdefault(site_id((r, col)), {"x_on": [], "z_on": []})
                corrections[site_id((r, col))]["z_on"].append(out_site)

    for logical in range(c.n_logical):
        r = b.row_of[logical]
        out_site = output_map[logical]
        for s in b.wires[r].x_set:
            corrections.setdefault(site_id(s), {"x_on": [], "z_on": []})
            corrections[site_id(s)]["x_on"].append(out_site)
        for s in b.wires[r].z_set:
            corrections.setdefault(site_id(s), {"x_on": [], "z_on": []})
            corrections[site_id(s)]["z_on"].append(out_site)

    input_sites = [site_id((r, 0)) for r in range(n_rows)]
    output_sites = [output_map[l] for l in range(c.n_logical)]
    pattern = MeasurementPattern(resource, input_sites, output_sites,
                                 commands, corrections)
    layout = {l: b.row_of[l] for l in range(c.n_logical)}
    return CompiledProgram(pattern, layout, output_map, n_rows, n_cols)


# -- independent oracle ----------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def simulate_circuit(c: Circuit, input_state: Optional[StateVector] = None,
                     cap: int = DEFAULT_CAP) -> StateVector:
    """Apply the gates directly to a dense state (default input |+...+>).

    Deliberately shares no code with ``compile_circuit``; this is the
    oracle the compiler is checked against.
    """
    if c.n_logical > cap:
        raise CapacityError(f"{c.n_logical} qubits exceeds cap {cap}")
    if input_state is None:
        state = StateVector.plus_state(c.n_logical)
    else:
        if input_state.n != c.n_logical:
            raise ValidationError("input state size mismatch")
        state = input_state.copy()
    for g in c.gates:
        if g.name == "H":
            apply_local(state, _H, g.qubits[0])
        elif g.name == "S":
            apply_local(state, _S, g.qubits[0])
        elif g.name == "Rz":
            apply_local(state, _rz(g.theta), g.qubits[0])
        elif g.name == "Rx":
            apply_local(state, _rx(g.theta), g.qubits[0])
        elif g.name == "CZ":
            apply_cz(state, g.qubits[0], g.qubits[1])
        else:  # CNOT: conjugate CZ by H on the target
            apply_local(state, _H, g.qubits[1])
            apply_cz(state, g.qubits[0], g.qubits[1])
            apply_local(state, _H, g.qubits[1])
    return state
