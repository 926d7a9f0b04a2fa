"""Independent checks of each job's CLI output.

Every check recomputes the expected answer by a route that does not go
through the code path the job timed: lattice rows from the lattice
definition, GF(2) ranks and commutation by Python-integer elimination,
log Z by numpy enumeration, percolation by a breadth-first flood fill on the
same PCG64/SeedSequence defect draws, compiled runs against
``simulate_circuit``.  A check returns None when the output is right and a
one-line reason otherwise.  All of it runs outside the timed region.
"""
from __future__ import annotations

import math
import os

import numpy as np

TOL = 1e-9


# -- Pauli text rows as integer bit masks ----------------------------------------------

def parse_pauli(text: str) -> tuple[int, int, int]:
    """'+XZIY' -> (x mask, z mask, sign bit) with qubit k at bit k."""
    sign = 1 if text[0] == "-" else 0
    x = z = 0
    for k, ch in enumerate(text[1:]):
        if ch in "XY":
            x |= 1 << k
        if ch in "ZY":
            z |= 1 << k
    return x, z, sign


def anticommute(p: tuple, q: tuple) -> bool:
    return bin((p[0] & q[1]) ^ (p[1] & q[0])).count("1") % 2 == 1


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of integer bit rows (XOR basis by leading bit)."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def _stabilizer_set_error(rows: list[str], n: int) -> str | None:
    """n commuting, independent generators on n qubits, or the reason not."""
    if len(rows) != n:
        return f"{len(rows)} stabilizer rows for {n} qubits"
    ps = [parse_pauli(r) for r in rows]
    if any(len(r) != n + 1 for r in rows):
        return "stabilizer row of the wrong length"
    for i in range(n):
        for j in range(i + 1, n):
            if anticommute(ps[i], ps[j]):
                return f"output stabilizers {i} and {j} anticommute"
    if gf2_rank([x | (z << n) for x, z, _ in ps]) != n:
        return "output stabilizers are not independent"
    return None


# -- graph-state ---------------------------------------------------------------------------

def lattice_edges(kind: str, dims: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Open-boundary nearest-neighbour lattice, row-major, last axis fastest."""
    shape = tuple(dims)
    n = int(np.prod(shape))
    idx = np.arange(n).reshape(shape)
    edges = []
    for axis in range(len(shape)):
        lo = np.take(idx, range(shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, range(1, shape[axis]), axis=axis).ravel()
        edges += list(zip(lo.tolist(), hi.tolist()))
    return n, sorted(edges)


def check_graph_state(result: dict, job) -> str | None:
    lat = job.info["lattice"]
    n, edges = lattice_edges(lat["kind"], lat["dims"])
    if result["graph"] != {"n": n, "edges": [list(e) for e in edges]}:
        return "graph differs from the lattice"
    rows = [bytearray(b"I" * n) for _ in range(n)]
    for j in range(n):
        rows[j][j] = ord("X")
    for a, b in edges:
        rows[a][b] = ord("Z")
        rows[b][a] = ord("Z")
    want = ["+" + r.decode() for r in rows]
    if result["stabilizers"] != want:
        return "stabilizer rows differ from X_j Z_N(j)"
    return None


# -- slice ---------------------------------------------------------------------------------

class _CodeLattice:
    """Edge numbering of an r x c code lattice: horizontal edges row-major,
    then vertical edges row-major (the layout documented by mbqc.surface)."""

    def __init__(self, rows: int, cols: int):
        self.r, self.c = rows, cols
        self.n_h = (rows + 1) * cols
        self.n = self.n_h + rows * (cols + 1)

    def star(self, i: int, j: int) -> int:
        mask = 0
        if j > 0:
            mask |= 1 << (i * self.c + j - 1)
        if j < self.c:
            mask |= 1 << (i * self.c + j)
        if i > 0:
            mask |= 1 << (self.n_h + (i - 1) * (self.c + 1) + j)
        if i < self.r:
            mask |= 1 << (self.n_h + i * (self.c + 1) + j)
        return mask

    def plaquette(self, i: int, j: int) -> int:
        return ((1 << (i * self.c + j)) | (1 << ((i + 1) * self.c + j))
                | (1 << (self.n_h + i * (self.c + 1) + j))
                | (1 << (self.n_h + i * (self.c + 1) + j + 1)))

    def checks(self, holes: dict) -> list[tuple[int, int, int]]:
        """Present A_s (X stars) and B_p (Z plaquettes) as (x, z, sign)."""
        e_holes = {tuple(s) for s in holes["electric"]}
        m_holes = {tuple(f) for f in holes["magnetic"]}
        out = [(self.star(i, j), 0, 0) for i in range(self.r + 1) for j in range(self.c + 1)
               if (i, j) not in e_holes]
        out += [(0, self.plaquette(i, j), 0) for i in range(self.r) for j in range(self.c)
                if (i, j) not in m_holes]
        return out


def check_slice(result: dict, job) -> str | None:
    size, holes = job.info["size"], job.info["holes"]
    lat = _CodeLattice(size, size)
    n_sites, n_faces = (size + 1) ** 2, size * size
    ver = result.get("verification") or {}
    if ver.get("passed") is not True or ver.get("failures"):
        return "slice --verify did not pass"
    if ver.get("n_checks") != n_sites + n_faces:
        return f"verified {ver.get('n_checks')} checks, want {n_sites + n_faces}"
    if result["n_code_qubits"] != lat.n or result["n_cluster_qubits"] != lat.n + n_sites + n_faces:
        return "qubit counts differ from the lattice"
    n_meas = n_sites + n_faces + (1 if holes["electric"] else 0)
    if len(result["outcomes"]) != n_meas or set(result["outcomes"].values()) - {0, 1}:
        return "outcome table has the wrong size or non-bit values"
    checks = lat.checks(holes)
    want_rank = gf2_rank([x | (z << lat.n) for x, z, _ in checks])
    if result["imposed_rank"] != want_rank:
        return f"imposed_rank {result['imposed_rank']}, GF(2) rank {want_rank}"
    for kind in ("electric", "magnetic"):
        if not holes[kind]:
            continue
        ops = result.get(f"{kind}_logicals")
        if not ops:
            return f"{kind} logicals missing"
        zbar, xbar = parse_pauli(ops["Z"]), parse_pauli(ops["X"])
        if not anticommute(zbar, xbar):
            return f"{kind} logical Z and X commute"
        if any(anticommute(op, chk) for op in (zbar, xbar) for chk in checks):
            return f"{kind} logical anticommutes with an imposed check"
    return None


# -- run-pattern on the stabilizer backend -------------------------------------------------

def check_run_stab(result: dict, job) -> str | None:
    pattern = job.info["pattern"]
    measured = {c["site"] for c in pattern["commands"]}
    if {int(k) for k in result["outcomes"]} != measured:
        return "outcomes do not cover exactly the measured sites"
    if set(result["outcomes"].values()) - {0, 1}:
        return "non-bit outcome"
    if result["output_sites"] != pattern["outputs"]:
        return "output sites differ from the pattern"
    return _stabilizer_set_error(result["output_state"], len(pattern["outputs"]))


def check_twin(twin: dict) -> str | None:
    """Run a small pattern on both backends with the same outcomes."""
    from mbqc.engine import MeasurementPattern, run_pattern
    from mbqc.errors import MbqcError
    from mbqc.statevector import fidelity_up_to_phase
    from mbqc.tableau import tableau_to_statevector

    p = MeasurementPattern.from_json_dict(twin["pattern"])
    try:
        stab = run_pattern(p, backend="stabilizer", randomness=twin["seed"])
        sv = run_pattern(p, backend="statevector", forced=stab.outcomes)
    except MbqcError as exc:
        return f"twin run raised {type(exc).__name__}: {exc}"
    if abs(stab.probability - sv.probability) > TOL:
        return f"twin branch probability {stab.probability} vs {sv.probability}"
    if stab.frame != sv.frame:
        return "twin frames differ between backends"
    f = fidelity_up_to_phase(tableau_to_statevector(stab.output_state), sv.output_state)
    if f < 1 - TOL:
        return f"twin output fidelity {f}"
    return _stabilizer_set_error(stab.output_state.dump().split("\n"), len(p.output_sites))


# -- sv_patterns -----------------------------------------------------------------------------

def check_compile(result: dict, job, workdir: str) -> str | None:
    info = job.info
    with open(os.path.join(workdir, info["out"]), encoding="utf-8") as fh:
        if fh.read() != info["pattern_text"]:
            return "compiled pattern file differs from the library's pattern"
    if (result["n_sites"] != info["n_sites"] or result["grid"] != info["grid"]
            or result["output_map"] != {str(k): v for k, v in info["output_map"].items()}):
        return "compile report disagrees with the compiled pattern"
    return None


def check_run_sv(result: dict, job) -> str | None:
    """Replay the reported outcomes in process, frame-correct, and compare
    with the circuit simulated gate by gate."""
    from mbqc.compiler import Circuit, simulate_circuit
    from mbqc.engine import MeasurementPattern, PauliFrame, apply_frame, run_pattern
    from mbqc.statevector import fidelity_up_to_phase

    circuit = Circuit.from_json_dict(job.info["circuit"])
    pattern = MeasurementPattern.from_json(job.info["pattern_text"])
    outcomes = {int(k): v for k, v in result["outcomes"].items()}
    if set(outcomes) != set(pattern.measured_sites):
        return "outcomes do not cover exactly the measured sites"
    rec = run_pattern(pattern, backend="statevector", forced=outcomes)
    if rec.frame.to_json_dict() != result["frame"]:
        return "reported frame differs from the pattern's correction table"
    if abs(rec.probability - result["probability"]) > TOL:
        return f"branch probability {result['probability']} vs replay {rec.probability}"
    if result["output_state"] != {"n": circuit.n_logical}:
        return "output state size differs from the circuit width"
    frame = PauliFrame({int(k): v for k, v in result["frame"]["x"].items()},
                       {int(k): v for k, v in result["frame"]["z"].items()})
    corrected = apply_frame(rec.output_state, frame, rec.output_sites)
    f = fidelity_up_to_phase(corrected, simulate_circuit(circuit))
    if f < 1 - TOL:
        return f"frame-corrected output has fidelity {f} with the circuit"
    return None


def check_branches(result: dict, job) -> str | None:
    branches = result["branches"]
    if result["n_branches"] != len(branches) or not branches:
        return "branch count disagrees with the branch list"
    total = math.fsum(b["probability"] for b in branches)
    if abs(total - 1) > TOL or abs(result["probability_sum"] - 1) > TOL:
        return f"branch probabilities sum to {total}"
    measured = [str(s) for s in job.info["measured"]]
    outputs = sorted(str(s) for s in job.info["outputs"])
    seen = set()
    for b in branches:
        if sorted(b["outcomes"], key=int) != measured or sorted(b["frame"]["x"]) != outputs:
            return "branch outcome or frame keys differ from the pattern"
        seen.add(tuple(b["outcomes"][s] for s in measured))
    if len(seen) != len(branches):
        return "duplicate branches"
    return None


def log_partition_numpy(model: dict) -> float:
    """log Z = log sum_s exp(beta * (sum J s_a s_b + sum h s_a)) by enumeration."""
    n = model["graph"]["n"]
    spins = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    w = np.zeros(1 << n)
    for key, j in model["J"].items():
        a, b = (int(v) for v in key.split("-"))
        w += j * spins[:, a] * spins[:, b]
    for v, h in model["h"].items():
        w += h * spins[:, int(v)]
    w *= model["beta"]
    top = w.max()
    return float(top + math.log(np.exp(w - top).sum()))


def check_partition(result: dict, job) -> str | None:
    want = log_partition_numpy(job.info["model"])
    got = result["log_Z"]
    if abs(got - want) > TOL * max(1.0, abs(want)):
        return f"log_Z {got} vs enumeration {want}"
    if abs(math.log(result["Z"]) - want) > TOL * max(1.0, abs(want)):
        return f"Z {result['Z']} vs enumeration exp({want})"
    return None


# -- percolation -------------------------------------------------------------------------------

def spanning_fraction(rows: int, cols: int, rate: float, seeds: list[int], axis: str) -> float:
    """Breadth-first flood fill from one boundary, all seeds at once.

    Each seed draws its defects exactly as documented for the CLI: one
    ``random(rows*cols) < rate`` draw from PCG64(SeedSequence(seed)).
    """
    occ = np.stack([np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
                    .random(rows * cols) >= rate for s in seeds]).reshape(len(seeds), rows, cols)
    if axis == "row":
        occ = occ.transpose(0, 2, 1)
    reached = np.zeros_like(occ)
    reached[:, 0, :] = occ[:, 0, :]
    while True:
        grow = reached.copy()
        grow[:, 1:, :] |= reached[:, :-1, :]
        grow[:, :-1, :] |= reached[:, 1:, :]
        grow[:, :, 1:] |= reached[:, :, :-1]
        grow[:, :, :-1] |= reached[:, :, 1:]
        grow &= occ
        if np.array_equal(grow, reached):
            break
        reached = grow
    hits = int(np.count_nonzero(reached[:, -1, :].any(axis=1)))
    return hits / len(seeds)


def check_percolation(result: dict, job) -> str | None:
    i = job.info
    want = spanning_fraction(i["rows"], i["cols"], i["rate"],
                             [i["seed"] + k for k in range(i["n_seeds"])], i["axis"])
    if result["spanning_probability"] != want:
        return f"spanning probability {result['spanning_probability']} vs flood fill {want}"
    return None


def check(result: dict, job, workdir: str) -> str | None:
    """Dispatch on the job kind; an exception while checking is a failure."""
    from mbqc.errors import MbqcError
    try:
        if job.kind == "compile":
            return check_compile(result, job, workdir)
        return {"graph_state": check_graph_state, "slice": check_slice,
                "run_stab": check_run_stab, "run_sv": check_run_sv,
                "branches": check_branches, "partition": check_partition,
                "percolation": check_percolation}[job.kind](result, job)
    except (MbqcError, KeyError, TypeError, ValueError, IndexError, AttributeError,
            OSError) as exc:
        return f"output rejected: {type(exc).__name__}: {exc}"
