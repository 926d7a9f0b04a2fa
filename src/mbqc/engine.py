"""Adaptive measurement patterns over resource graph states.

A pattern measures every non-output site of its resource graph once, in
declared order.  Command angles adapt to earlier outcomes by the frozen
rule ``theta_eff = (-1)^s * theta + pi * t`` where ``s`` and ``t`` are
XOR-parities of the outcomes at the command's ``s_deps`` / ``t_deps``.

The engine never auto-corrects: a run returns the raw post-measurement
state on the output sites together with the Pauli frame implied by the
pattern's correction table, and ``check_determinism`` applies frames
explicitly.

One level-synchronous walker executes patterns on both backends:
``run_pattern`` follows the branch an ``OutcomeSource`` picks, and
``enumerate_branches`` every outcome of probability at least ``PROB_TOL``.
Every live branch takes one command at a time, so branches come out in
lexicographic command order, outcome 0 first.  The walk carries arrays: a
branches x commands uint8 outcome matrix, gathered by parent index with one
column per command, and the probabilities; frames come from one GF(2)
product, and records are built at the API boundary.  A backend supplies a
step (one command on every branch of a level: each followed outcome's
parent, outcome and probability, and the children's level) and an output
extraction.  The statevector backend prepares the resource lazily, in the
standard form of Danos, Kashefi & Panangaden (arXiv 0704.1263): a site joins
in |+> just before it or a neighbour is measured, and each edge's CZ is
applied just before its first end is measured, so only the live sites are
held.  A level is one ``branches x 2^live`` array, since branches at one
depth hold the same live sites: one CZ per edge and one projection per
command serve them all.  A run holds 2^W amplitudes for its peak live width
W, which ``cap`` bounds; an enumeration's level at command j holds at most
2^j x 2^(live at j), never more than 2^n (``SV_TRANSIENT`` bounds the walk's
peak).  The stabilizer step measures one tableau.  At
multiples of pi/2 no basis depends on an earlier outcome, so the x/z bits
and the random commands are the same on every branch, and outcomes and
output signs are GF(2)-affine in the k random outcomes: its enumeration is a
reference run (0 at each random command) and one run per random command
forced to 1 there, spanned (Gidney's reference frames, arXiv 2103.02202).
"""
from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (CapacityError, ValidationError, check_memory, json_array, json_index,
                     json_int, json_number, json_object)
from .graphs import Graph
from .rng import PROB_TOL, OutcomeSource, as_outcome_source
from .statevector import (DEFAULT_CAP, StateRows, StateVector, _probability0, _project,
                          apply_cz, apply_pauli, fidelity_up_to_phase)
from .tableau import Tableau, extract_subtableau, graph_state_tableau, tableau_to_statevector

HALF_PI = math.pi / 2.0
SV_TRANSIENT = 4     # peak level-sized arrays of a walk: a level before and after it
                     # widens (np.repeat), its children, and one gathered half


@dataclass(frozen=True)
class MeasurementCommand:
    """One adaptive single-site measurement."""

    site: int
    plane: str                      # "XY" or "Z"
    angle: float = 0.0
    s_deps: frozenset[int] = frozenset()
    t_deps: frozenset[int] = frozenset()

    def __post_init__(self):
        for name in ("s_deps", "t_deps"):    # kept if a frozenset, as the parser builds
            if type(deps := getattr(self, name)) is not frozenset:
                object.__setattr__(self, name, frozenset(int(d) for d in deps))
        if self.plane not in ("XY", "Z"):
            raise ValidationError(f"plane must be XY or Z, got {self.plane!r}")
        if not math.isfinite(self.angle):
            raise ValidationError("angle must be finite")

    def effective_angle(self, outcomes: Mapping[int, int]) -> float:
        s = 0
        for d in self.s_deps:
            s ^= outcomes[d] & 1
        t = 0
        for d in self.t_deps:
            t ^= outcomes[d] & 1
        return (-self.angle if s else self.angle) + (math.pi if t else 0.0)


@dataclass(frozen=True)
class PauliFrame:
    """Byproduct record: X/Z exponents per output site."""

    x: dict[int, int] = field(default_factory=dict)
    z: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"x": {str(k): v for k, v in sorted(self.x.items())},
                "z": {str(k): v for k, v in sorted(self.z.items())}}


@dataclass
class BranchRecord:
    """One complete outcome assignment with its frame and output state."""

    outcomes: dict[int, int]
    frame: PauliFrame
    output_state: Union[StateVector, Tableau]
    probability: float
    output_sites: tuple[int, ...]
    log2_probability: float      # does not underflow where ``probability`` does


class MeasurementPattern:
    """Resource graph + ordered commands + correction table.

    ``corrections`` maps a measured site to the output sites whose X/Z
    frame exponents its outcome toggles:
    ``{site: {"x_on": [...], "z_on": [...]}}``.
    """

    def __init__(self, resource: Graph, input_sites: Sequence[int],
                 output_sites: Sequence[int],
                 commands: Sequence[MeasurementCommand],
                 corrections: Optional[Mapping[int, Mapping[str, Sequence[int]]]] = None):
        self.resource = resource
        self.input_sites = tuple(int(s) for s in input_sites)
        self.output_sites = tuple(int(s) for s in output_sites)
        self.commands = tuple(commands)
        self.corrections = {
            int(site): {"x_on": tuple(int(o) for o in rule.get("x_on", ())),
                        "z_on": tuple(int(o) for o in rule.get("z_on", ()))}
            for site, rule in (corrections or {}).items()}

    @property
    def measured_sites(self) -> tuple[int, ...]:
        return tuple(c.site for c in self.commands)

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "resource": self.resource.to_json_dict(),
            "inputs": list(self.input_sites),
            "outputs": list(self.output_sites),
            "commands": [{"site": c.site, "plane": c.plane, "angle": c.angle,
                          "s": sorted(c.s_deps), "t": sorted(c.t_deps)}
                         for c in self.commands],
            "corrections": {str(site): {"x_on": sorted(rule["x_on"]),
                                        "z_on": sorted(rule["z_on"])}
                            for site, rule in sorted(self.corrections.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "MeasurementPattern":
        def sites(values, what):
            return [json_int(v, what) for v in json_array(values, what)]

        try:
            d = json_object(d, ("resource", "inputs", "outputs", "commands"), "pattern JSON",
                            ("corrections",))
            resource = Graph.from_json_dict(d["resource"])
            commands = [MeasurementCommand(json_int(c["site"], "command site"), c["plane"],
                                           json_number(c.get("angle", 0.0), "command angle"),
                                           frozenset(sites(c.get("s", []), "s dependency")),
                                           frozenset(sites(c.get("t", []), "t dependency")))
                        for c in (json_object(c, ("site", "plane"), "pattern command",
                                              ("angle", "s", "t"))
                                  for c in json_array(d["commands"], "pattern commands"))]
            rules = {site: json_object(rule, (), "correction rule", ("x_on", "z_on"))
                     for site, rule in d.get("corrections", {}).items()}
            corrections = {json_index(site, "correction site"):
                           {k: sites(rule.get(k, []), "correction target") for k in ("x_on", "z_on")}
                           for site, rule in rules.items()}
            return cls(resource, sites(d["inputs"], "input site"),
                       sites(d["outputs"], "output site"), commands, corrections)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad pattern JSON: {exc}") from exc

    @classmethod
    def from_json(cls, s: str) -> "MeasurementPattern":
        return cls.from_json_dict(json.loads(s))


def validate_pattern(p: MeasurementPattern) -> list[str]:
    """All violations of the pattern invariants (empty list means ok)."""
    issues: list[str] = []
    n = p.resource.n_vertices
    for label, sites in (("input", p.input_sites), ("output", p.output_sites)):
        for s in sites:
            if not (0 <= s < n):
                issues.append(f"{label} site {s} out of range")
    if len(set(p.output_sites)) != len(p.output_sites):
        issues.append("duplicate output sites")
    if len(set(p.input_sites)) != len(p.input_sites):
        issues.append("duplicate input sites")

    out_set = set(p.output_sites)
    seen: set[int] = set()
    for k, c in enumerate(p.commands):
        if not (0 <= c.site < n):
            issues.append(f"command {k}: site {c.site} out of range")
            continue
        if c.site in out_set:
            issues.append(f"command {k}: output site {c.site} must not be measured")
        if c.site in seen:
            issues.append(f"command {k}: site {c.site} measured twice")
        for d in sorted(c.s_deps | c.t_deps):
            if d == c.site:
                issues.append(f"command {k}: depends on itself")
            elif d not in seen:
                issues.append(
                    f"command {k}: dependency {d} precedes order "
                    f"(not measured before site {c.site})")
        seen.add(c.site)
    covered = seen | {s for s in out_set if 0 <= s < n}
    if len(covered) < n:            # count and name a few, without listing all n sites
        first = list(itertools.islice((s for s in range(n) if s not in covered), 10))
        more = ", ..." if n - len(covered) > len(first) else ""
        issues.append(f"{n - len(covered)} non-output sites never measured: "
                      f"{', '.join(map(str, first))}{more}")
    for site, rule in p.corrections.items():
        if site not in seen:
            issues.append(f"correction keyed by unmeasured site {site}")
        for o in rule["x_on"] + rule["z_on"]:
            if o not in out_set:
                issues.append(f"correction for site {site} targets non-output {o}")
    return issues


def _require_valid(p: MeasurementPattern) -> None:
    issues = validate_pattern(p)
    if issues:
        raise ValidationError("invalid pattern: " + "; ".join(issues))


def _entangling_schedule(p: MeasurementPattern, cap: int = DEFAULT_CAP) -> tuple[list, list[int]]:
    """A statevector walk's lazy preparation: per command, then once for the
    leaves, the sites that join the live qubits in |+> (appended in that
    order) and the edges then entangled, with the live width there.  The
    inputs are live from the start.  A site joins just before it or a
    neighbour is measured, and an edge is entangled just before its first
    end is measured (between two outputs, at the leaves), so each edge is
    entangled once, and the leaves hold only the outputs.  A peak over ``cap`` raises."""
    adj, measured = p.resource.adjacency(), set()
    live = set(p.input_sites)
    plan, widths = [], []
    for c in p.commands:
        near = [c.site] + sorted(t for t in adj[c.site] if t not in measured)
        joins = [t for t in near if t not in live]
        live.update(joins)
        plan.append((joins, [(c.site, t) for t in near[1:]]))
        widths.append(len(live))
        live.remove(c.site)
        measured.add(c.site)
    joins = [o for o in p.output_sites if o not in live]
    plan.append((joins, [(a, b) for a, b in p.resource.edges
                         if a not in measured and b not in measured]))
    widths.append(len(live) + len(joins))
    if max(widths) > cap:
        raise CapacityError(f"a walk of {max(widths)} live sites exceeds cap {cap}")
    return plan, widths


def _prepare(level: tuple, joins=(), edges=()) -> tuple:
    """One step of ``_entangling_schedule``'s plan on a level ``(amps, live)``: the
    sites ``joins`` appended in |+> (least significant, 2^(-1/2) each), then a CZ per edge."""
    amps, live = level
    if joins:
        amps, live = np.repeat(amps, 1 << len(joins), axis=-1), live + joins
        amps *= 2.0 ** (-len(joins) / 2)
    rows = StateRows(len(live), amps)
    for a, b in edges:
        apply_cz(rows, live.index(a), live.index(b))
    return rows.amps, live


def _is_quarter_turns(theta: float) -> bool:
    """Whether theta is k pi/2 for a whole |k| < 2^31: k times the float pi/2's
    error stays below 1.3e-7 rad, and past 2^52 every quotient is whole."""
    k = theta / HALF_PI
    return abs(k) < 2 ** 31 and abs(k - round(k)) <= 1e-12


def run_pattern(p: MeasurementPattern, input_state: Optional[StateVector] = None,
                backend: str = "statevector",
                randomness: Union[int, OutcomeSource, None] = None,
                forced: Optional[Mapping[int, int]] = None,
                cap: int = DEFAULT_CAP) -> BranchRecord:
    """Execute one branch of the pattern; see module docstring for semantics."""
    _require_valid(p)
    src = as_outcome_source(randomness, forced=forced)
    return _records(p, *_walk(p, input_state, backend, cap, src))[0]


def enumerate_branches(p: MeasurementPattern, input_state: Optional[StateVector] = None,
                       backend: str = "statevector", branch_cap: int = 1 << 16,
                       cap: int = DEFAULT_CAP, *, _table: bool = False,
                       _row_bytes: int = 0) -> list[BranchRecord]:
    """Exhaustively force every realizable outcome combination.

    Zero-probability combinations are pruned (they are not branches of the
    computation); the returned probabilities sum to 1 within 1e-9.  The walk
    carries arrays, 2^k x (k + 16) bytes at most for k commands, checked
    against physical memory first.  The stabilizer backend runs the pattern
    once plus once per random command (module docstring), one tableau at a
    time; its output tableaux share one set of x/z rows, so copy one before
    changing it.  ``_table=True`` returns the walk's ``BranchTable``, with
    no records and no output state; a caller that spends ``_row_bytes`` on
    each branch has 2^k of those checked too, before the walk."""
    _require_valid(p)
    k = len(p.commands)
    if branch_cap < 0:
        raise ValidationError(f"branch cap must be a non-negative count, got {branch_cap}")
    if 2 ** k > branch_cap:
        raise CapacityError(f"2^{k} branches exceed cap {branch_cap}")
    check_memory(2 ** k * (k + 16), f"an outcome table of 2^{k} branches")
    if backend != "stabilizer":
        table, leaves = _walk(p, input_state, backend, cap, None, _row_bytes)
        return table if _table else _records(p, table, leaves)

    def run(src):       # its table, and its output tableau only for records
        table, leaves = _walk(p, input_state, backend, cap, src, _row_bytes)
        return table, None if _table else leaves()[0]

    ref = _ReferenceSource()    # a run's outcomes and output signs, XOR ref's: a generator
    runs = [run(ref)]
    runs += [run(OutcomeSource(forced={**ref.forced, r: 1})) for r in ref.forced]
    bits = _span([np.array(t[0], dtype=np.uint8) for t, _ in runs])
    (first, out), n = runs[0], len(bits)      # every branch has probability 2^-k
    table = BranchTable(bits.tolist(), first.probability * n, first.log2_probability * n,
                        *_frames(p, bits))
    if _table:
        return table
    leaves = [copy.copy(out) for _ in range(n)]         # sharing out's x/z rows
    for t, signs in zip(leaves, _span([o.signs for _, o in runs])):
        t.signs = signs
    return _records(p, table, lambda: leaves)


def _span(rows: Sequence[np.ndarray]) -> np.ndarray:
    """``rows[0] ^ XOR_i b_i (rows[i] ^ rows[0])`` for every bit vector b, in
    binary order with ``b_1`` the most significant: one row per branch."""
    span = rows[0][None]
    for row in rows[1:]:
        span = np.stack([span, span ^ row ^ rows[0]], axis=1).reshape(2 * len(span), len(row))
    return span


class BranchTable(list):
    """A walk's branches: each item is one branch's outcomes in command order,
    with ``probability`` and ``log2_probability`` lists in the same order and
    ``frame_index`` into ``frames``, one ``PauliFrame`` per distinct frame."""

    def __init__(self, rows, *columns):
        super().__init__(rows)
        self.probability, self.log2_probability, self.frames, self.frame_index = columns


def _records(p: MeasurementPattern, table: BranchTable, leaves: Callable) -> list[BranchRecord]:
    """One ``BranchRecord`` per branch of ``table``, with ``leaves()``' output states."""
    sites, frames = [c.site for c in p.commands], table.frames
    return [BranchRecord(dict(zip(sites, o)), frames[f], state, prob, p.output_sites, log2_prob)
            for o, f, state, prob, log2_prob in zip(table, table.frame_index, leaves(),
                                                    table.probability, table.log2_probability)]


def _walk(p: MeasurementPattern, input_state: Optional[StateVector], backend: str,
          cap: int, src: Optional[OutcomeSource], row_bytes: int = 0
          ) -> tuple[BranchTable, Callable]:
    """Level-synchronous walk: each live branch takes each command together, its
    children in outcome order: the one a source's ``choose`` picks, or without
    one each of probability >= PROB_TOL.  One live branch keeps Python scalars
    (numpy calls cost more).  Returns the table and a leaf-output callable."""
    level, step, output = _backend(p, input_state, backend, cap, src, row_bytes)
    col = {c.site: j for j, c in enumerate(p.commands)}
    bits, prob, log2_prob, one = np.zeros((1, len(col)), dtype=np.uint8), 1.0, 0.0, {}
    for j, c in enumerate(p.commands):        # a Z command ignores its angle
        if len(bits) == 1:
            thetas = [c.effective_angle(one)]
        else:                                 # the same float operations, per row
            s, t = (bits[:, [col[d] for d in ds]].sum(axis=1) & 1 for ds in (c.s_deps, c.t_deps))
            thetas = (np.where(s, -c.angle, c.angle) + np.where(t, math.pi, 0.0)).tolist()
        parent, outcome, pm, level = step(level, c, thetas, src)
        if len(outcome) == 1:                 # still one branch
            one[c.site] = bits[0, j] = outcome[0]
            prob, log2_prob = prob * pm[0], log2_prob + math.log2(pm[0])
            continue
        bits, pm = bits[parent], np.asarray(pm)
        bits[:, j] = outcome
        prob = np.take(prob, parent) * pm
        log2_prob = np.take(log2_prob, parent) + list(map(math.log2, pm.tolist()))
    return BranchTable(bits.tolist(), np.reshape(prob, -1).tolist(), np.reshape(
        log2_prob, -1).tolist(), *_frames(p, bits)), lambda: output(level)


def _frames(p: MeasurementPattern, bits: np.ndarray) -> tuple[list, list]:
    """One ``PauliFrame`` per distinct frame and each branch's index into them,
    from one GF(2) product: the outcome matrix times the correction table (a
    row per command: the X then Z exponents its outcome toggles)."""
    outs, n = p.output_sites, len(p.output_sites)
    row, col = {c.site: k for k, c in enumerate(p.commands)}, {o: j for j, o in enumerate(outs)}
    table = np.zeros((len(p.commands), 2 * n), dtype=np.int64)
    for site, rule in p.corrections.items():
        for j in [col[o] for o in rule["x_on"]] + [n + col[o] for o in rule["z_on"]]:
            table[row[site], j] ^= 1
    made: dict[tuple, int] = {}
    index = [made.setdefault(f, len(made)) for f in map(tuple, ((bits @ table) & 1).tolist())]
    return [PauliFrame(dict(zip(outs, f[:n])), dict(zip(outs, f[n:]))) for f in made], index


class _FlippedSource(OutcomeSource):
    """The walker's source, asked in the command's terms by a tableau measuring
    a Pauli whose outcome is the command's XOR ``flip``; keeps the command's
    outcome ``m`` and its probability ``pm``."""

    def __init__(self, src: OutcomeSource, flip: int):
        self.src, self.flip = src, flip

    def choose(self, key: int, p0: float) -> int:
        p0 = 1.0 - p0 if self.flip else p0
        self.m = self.src.choose(key, p0)
        self.pm = 1.0 - p0 if self.m else p0
        return self.m ^ self.flip


class _ReferenceSource(OutcomeSource):
    """Answers 0 at every random measurement and adds it to ``forced``, whose
    keys are then a stabilizer pattern's random commands, in order."""

    def draw(self, key: int) -> int:
        self.forced[key] = 0
        return 0


def _check_report(p: MeasurementPattern, row_bytes: int) -> None:
    """Refuse a caller's report of ``row_bytes`` for each of 2^k branches."""
    if row_bytes:
        n = 2 ** len(p.commands)
        check_memory(n * row_bytes, f"a report of {n} branches")


def _backend(p: MeasurementPattern, input_state: Optional[StateVector], backend: str,
             cap: int, src: Optional[OutcomeSource] = None, row_bytes: int = 0):
    """(root level, step, output) for one backend.  ``step(level, command,
    thetas, src)`` returns, per followed (branch, outcome) in order, the
    branch's index in ``level``, the outcome and its probability, and then the
    children's level; ``output(level)`` gives each leaf's output state.  The
    walk's ``src`` is None in an enumeration, whose levels are checked for
    memory; a run's level is one branch.  A report of ``row_bytes`` per
    branch is checked after the backend's own need, before it allocates."""
    if backend == "statevector":
        plan, widths = _entangling_schedule(p, cap)
        # the level at command j holds at most 2^j branches of 2^widths[j] amplitudes
        bits = max(widths) if src is not None else max(j + w for j, w in enumerate(widths))
        check_memory(SV_TRANSIENT * 16 << bits, f"a {bits}-qubit statevector walk")
        _check_report(p, row_bytes)
        if input_state is None:
            amps = StateVector.plus_state(len(p.input_sites)).amps[None]
        elif input_state.n != len(p.input_sites):
            raise ValidationError("input state size does not match input sites")
        else:
            amps = input_state.amps[None].copy()    # entangled in place, so a copy
        sites = [c.site for c in p.commands]        # what joins before and after a command
        before, after = dict(zip(sites, plan)), dict(zip(sites[-1:], plan[-1:]))

        def sv_step(level, c, thetas, src):
            amps, live = _prepare(level, *before.get(c.site, ()))  # a site per qubit
            pos = live.index(c.site)
            p0 = _probability0(amps, pos, c.plane, thetas)
            pm = np.stack([p0, 1.0 - p0], axis=1)       # branch x outcome
            if src is None:
                parent, outcome = np.nonzero(pm >= PROB_TOL)
            else:
                parent, outcome = np.arange(len(p0)), [src.choose(c.site, x) for x in p0.tolist()]
            post, norm = _project(amps, pos, c.plane, thetas, parent, outcome)
            post /= np.sqrt(norm)[:, None]
            level = _prepare((post, live[:pos] + live[pos + 1:]), *after.get(c.site, ()))
            return parent, outcome, pm[parent, outcome], level

        def sv_output(level):
            amps, live = level            # live: the output sites, in the order they joined
            axes = [0] + [1 + live.index(s) for s in p.output_sites]
            out = amps.reshape((len(amps),) + (2,) * len(live)).transpose(axes)
            return [StateVector(len(live), a) for a in out.reshape(len(amps), -1)]

        root = amps, list(p.input_sites)        # one row; the inputs, in input order
        return (root if sites else _prepare(root, *plan[-1])), sv_step, sv_output
    if backend == "stabilizer":
        if input_state is not None:
            raise CapacityError("stabilizer backend does not take injected inputs")
        if not all(c.plane == "Z" or _is_quarter_turns(c.angle) for c in p.commands):
            raise CapacityError("stabilizer backend requires all angles to be multiples of pi/2")
        _check_report(p, row_bytes)

        def stab_step(t, c, thetas, src):   # one tableau; +/-angle + pi*t: whole turns too
            k = 0 if c.plane == "Z" else round(thetas[0] / HALF_PI)    # k pi/2: X, Y, -X, -Y
            flipped = _FlippedSource(src, k >> 1 & 1)
            t.measure_pauli("Z" if c.plane == "Z" else "XY"[k % 2], c.site, flipped)
            return [0], [flipped.m], [flipped.pm], t

        return (graph_state_tableau(p.resource), stab_step,
                lambda t: [extract_subtableau(t, p.output_sites)])
    raise ValidationError(f"unknown backend {backend!r}")


@dataclass
class DeterminismReport:
    passed: bool
    n_branches: int
    min_fidelity: float
    failures: list[dict]


def apply_frame(state: Union[StateVector, Tableau], frame: PauliFrame,
                output_sites: Sequence[int]) -> Union[StateVector, Tableau]:
    """Apply the frame's X then Z correction to each output qubit."""
    out_index = {s: i for i, s in enumerate(output_sites)}
    out = state.copy()
    for gate, exponents in (("X", frame.x), ("Z", frame.z)):
        for q in (out_index[s] for s, e in exponents.items() if e):
            if isinstance(out, Tableau):
                out.apply_clifford(gate, [q])
            else:
                apply_pauli(out, gate, q)
    return out


def check_determinism(branches: Sequence[BranchRecord], reference: StateVector,
                      tol: float = 1e-9) -> DeterminismReport:
    """Frame-correct every branch and compare to the reference output."""
    failures = []
    min_f = 1.0
    for i, b in enumerate(branches):
        corrected = apply_frame(b.output_state, b.frame, b.output_sites)
        if isinstance(corrected, Tableau):
            corrected = tableau_to_statevector(corrected)
        f = fidelity_up_to_phase(corrected, reference)
        min_f = min(min_f, f)
        if f < 1.0 - tol:
            failures.append({"branch": i, "outcomes": dict(b.outcomes),
                             "fidelity": f})
    return DeterminismReport(not failures, len(branches), min_f, failures)
