"""Seeded workload generators: each workload is a fixed list of mbqc CLI jobs.

``build(name, seed, workdir)`` writes every JSON input a workload needs into
``workdir`` and returns the job list.  The same (name, seed) always gives
byte-identical inputs and the same argv.  Input sizes are fixed per workload;
the seed changes only the structure inside them (which graph, which circuit,
where the holes sit, which outcomes the CLI draws), so the work per job stays
close to constant across seeds.

Besides the argv, each job carries what its oracle needs (``info``) and the
counts the traced pass must reproduce (``expect``).  The program itself only
ever sees the files and flags in ``argv``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("stab_wide", "surface_verify", "sv_patterns", "percolation")


@dataclass
class Job:
    id: str
    argv: list[str]               # mbqc arguments; paths are relative to the work dir
    kind: str                     # selects the oracle
    info: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)   # per-layer counts this job adds


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[str]             # argv of the small warm-up invocation
    twins: list[dict] = field(default_factory=list)   # stab_wide only


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _write(workdir: str, fname: str, obj: dict) -> str:
    with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"), sort_keys=True)
    return fname


# -- stab_wide ------------------------------------------------------------------

def _clifford_command(rng, site: int, s_deps: list[int], t_deps: list[int]) -> dict:
    """An XY measurement at a multiple of pi/2, or (1 in 10) a Z removal."""
    if rng.random() < 0.1:
        return {"site": site, "plane": "Z", "angle": 0.0, "s": [], "t": []}
    return {"site": site, "plane": "XY", "angle": int(rng.integers(4)) * math.pi / 2,
            "s": s_deps, "t": t_deps}


def cluster_wire(rng, rows: int, cols: int) -> dict:
    """2D cluster measured column by column; the last column is the output.

    Each XY angle adapts to the site's left neighbour (s) and the site two
    columns back (t), as signal flow along a wire does.
    """
    sid = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append([sid(r, c), sid(r, c + 1)])
            if r + 1 < rows:
                edges.append([sid(r, c), sid(r + 1, c)])
    commands = []
    for c in range(cols - 1):
        for r in range(rows):
            commands.append(_clifford_command(
                rng, sid(r, c), [sid(r, c - 1)] if c >= 1 else [],
                [sid(r, c - 2)] if c >= 2 else []))
    outputs = [sid(r, cols - 1) for r in range(rows)]
    corrections = {str(sid(r, cols - 2)): {"x_on": [sid(r, cols - 1)], "z_on": []}
                   for r in range(rows)}
    return {"resource": {"n": rows * cols, "edges": edges},
            "inputs": [sid(r, 0) for r in range(rows)], "outputs": outputs,
            "commands": commands, "corrections": corrections}


def random_regular3(rng, n: int, n_out: int) -> dict:
    """Random simple 3-regular graph measured in a random order.

    Drawn by the configuration model, retried until simple.  Outputs are
    ``n_out`` random sites; each XY angle depends on one or two random
    earlier sites, so outcomes spread across the whole tableau.
    """
    if n % 2:
        raise ValueError("a 3-regular graph needs an even vertex count")
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        a, b = stubs.min(axis=1), stubs.max(axis=1)
        if np.any(a == b) or len(np.unique(a * n + b)) != len(a):
            continue
        break
    edges = [[int(x), int(y)] for x, y in zip(a, b)]
    order = [int(v) for v in rng.permutation(n)]
    outputs = sorted(order[:n_out])
    commands, seen = [], []
    for v in order[n_out:]:
        s_deps = [seen[int(rng.integers(len(seen)))]] if seen else []
        t_deps = [seen[int(rng.integers(len(seen)))]] if seen and rng.random() < 0.5 else []
        commands.append(_clifford_command(rng, v, s_deps, sorted(set(t_deps) - set(s_deps))))
        seen.append(v)
    corrections = {str(commands[-1]["site"]): {"x_on": [outputs[0]], "z_on": []}}
    return {"resource": {"n": n, "edges": edges}, "inputs": [], "outputs": outputs,
            "commands": commands, "corrections": corrections}


def _stab_wide(rng, workdir: str) -> Workload:
    jobs = []
    for jid, pattern in (("wire-20x100", cluster_wire(rng, 20, 100)),
                         ("reg3-2000", random_regular3(rng, 2000, 16)),
                         ("reg3-2200", random_regular3(rng, 2200, 16))):
        fname = _write(workdir, f"{jid}.pattern.json", pattern)
        jobs.append(Job(jid, ["run-pattern", "--pattern", fname, "--backend", "stab",
                              "--seed", str(_cli_seed(rng))], "run_stab",
                        {"pattern": pattern},
                        {"tableau.measure.calls": len(pattern["commands"]),
                         "engine.branches": 1}))
    # twins of each pattern kind, small enough for the statevector backend
    twins = [{"pattern": cluster_wire(rng, 3, 5), "seed": _cli_seed(rng)},
             {"pattern": random_regular3(rng, 14, 4), "seed": _cli_seed(rng)}]
    warm = _write(workdir, "warmup.pattern.json", twins[0]["pattern"])
    return Workload(jobs,
                    ["run-pattern", "--pattern", warm, "--backend", "stab"], twins)


# -- surface_verify ----------------------------------------------------------------

def _holes(rng, size: int) -> dict:
    """One electric pair on two adjacent interior sites, one magnetic pair
    on two distinct faces."""
    i, j = int(rng.integers(1, size)), int(rng.integers(1, size - 1))
    electric = [[i, j], [i, j + 1]] if rng.random() < 0.5 else [[j, i], [j + 1, i]]
    faces = rng.choice(size * size, size=2, replace=False)
    magnetic = [[int(f) // size, int(f) % size] for f in faces]
    return {"electric": electric, "magnetic": magnetic}


def _surface_verify(rng, workdir: str) -> Workload:
    jobs = []
    for size, holed in ((8, False), (10, True), (12, False), (14, True)):
        jid = f"slice-{size}x{size}" + ("-holes" if holed else "")
        layout = {"code_rows": size, "code_cols": size}
        argv = ["slice", "--layout", _write(workdir, f"{jid}.layout.json", layout)]
        holes = _holes(rng, size) if holed else {"electric": [], "magnetic": []}
        if holed:
            argv += ["--holes", _write(workdir, f"{jid}.holes.json", holes)]
        argv += ["--verify", "--seed", str(_cli_seed(rng))]
        n_meas = (size + 1) ** 2 + size * size + (1 if holes["electric"] else 0)
        jobs.append(Job(jid, argv, "slice", {"size": size, "holes": holes},
                        {"tableau.measure.calls": n_meas}))
    for jid, lattice in (("graph-state-32x32", {"kind": "grid2d", "dims": [32, 32]}),
                         ("graph-state-10x10x10", {"kind": "grid3d", "dims": [10, 10, 10]})):
        fname = _write(workdir, f"{jid}.lattice.json", lattice)
        jobs.append(Job(jid, ["graph-state", "--lattice", fname], "graph_state",
                        {"lattice": lattice}))
    warm = _write(workdir, "warmup.layout.json", {"code_rows": 2, "code_cols": 2})
    return Workload(jobs, ["slice", "--layout", warm, "--verify"])


# -- sv_patterns ---------------------------------------------------------------------

_GATES = ("H", "S", "Rz", "Rx", "CZ", "CNOT")


def random_circuit(rng, n_logical: int, n_gates: int) -> dict:
    gates = []
    for _ in range(n_gates):
        g = _GATES[int(rng.integers(len(_GATES)))]
        if g in ("CZ", "CNOT"):
            a, b = rng.choice(n_logical, size=2, replace=False)
            gates.append({"g": g, "q": [int(a), int(b)]})
        elif g in ("Rz", "Rx"):
            gates.append({"g": g, "q": [int(rng.integers(n_logical))],
                          "theta": round(float(rng.uniform(-math.pi, math.pi)), 6)})
        else:
            gates.append({"g": g, "q": [int(rng.integers(n_logical))]})
    return {"n": n_logical, "gates": gates}


def compiled_circuit(rng, n_logical: int, n_sites: int):
    """First seeded random circuit whose compiled pattern has exactly
    ``n_sites`` sites, so the statevector width does not vary with the seed."""
    from mbqc.compiler import Circuit, compile_circuit
    while True:
        circuit = random_circuit(rng, n_logical, int(rng.integers(1, 7)))
        prog = compile_circuit(Circuit.from_json_dict(circuit))
        if prog.pattern.resource.n_vertices == n_sites:
            return circuit, prog


def spin_model(rng, n: int, m: int, beta: float = 0.5) -> dict:
    edges = set()
    while len(edges) < m:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    edges = sorted(edges)
    return {"graph": {"n": n, "edges": [list(e) for e in edges]},
            "J": {f"{a}-{b}": round(float(rng.uniform(-1, 1)), 6) for a, b in edges},
            "h": {str(v): round(float(rng.uniform(-0.5, 0.5)), 6) for v in range(n)},
            "beta": beta}


def _sv_patterns(rng, workdir: str) -> Workload:
    compile_jobs, run_jobs = [], []
    for jid, n_logical, n_sites in (("c3-18", 3, 18), ("c2-20", 2, 20)):
        circuit, prog = compiled_circuit(rng, n_logical, n_sites)
        cfile = _write(workdir, f"{jid}.circuit.json", circuit)
        pattern_text = prog.pattern.to_json() + "\n"
        pfile = f"{jid}.pattern.json"
        with open(os.path.join(workdir, pfile), "w", encoding="utf-8") as fh:
            fh.write(pattern_text)
        out = f"{jid}.compiled.json"
        compile_jobs.append(Job(f"compile-{jid}", ["compile", "--circuit", cfile, "--out", out],
                                "compile", {"out": out, "pattern_text": pattern_text,
                                            "n_sites": n_sites, "grid": [prog.n_rows, prog.n_cols],
                                            "output_map": prog.output_map},
                                {"compiler.sites": n_sites}))
        run_jobs.append(Job(f"run-{jid}", ["run-pattern", "--pattern", pfile, "--backend", "sv",
                                           "--seed", str(_cli_seed(rng))], "run_sv",
                            {"circuit": circuit, "pattern_text": pattern_text},
                            {"statevector.apply_cz.calls": prog.pattern.resource.n_edges,
                             "engine.branches": 1}))
    circuit, prog = compiled_circuit(rng, 2, 16)       # 14 commands: 2^14 branches at most
    bfile = "branches-c2-16.pattern.json"
    with open(os.path.join(workdir, bfile), "w", encoding="utf-8") as fh:
        fh.write(prog.pattern.to_json() + "\n")
    branch_job = Job("branches-c2-16", ["branches", "--pattern", bfile, "--backend", "sv"],
                     "branches", {"commands": len(prog.pattern.commands),
                                  "measured": sorted(c.site for c in prog.pattern.commands),
                                  "outputs": sorted(prog.pattern.output_sites)},
                     {"statevector.apply_cz.calls": prog.pattern.resource.n_edges})
    partition_jobs = []
    for jid, n, m in (("ising-8-12", 8, 12), ("ising-9-12", 9, 12)):
        model = spin_model(rng, n, m)
        mfile = _write(workdir, f"{jid}.model.json", model)
        for method in ("overlap", "brute"):
            expect = {"statevector.apply_cz.calls": 2 * m} if method == "overlap" else {}
            partition_jobs.append(Job(f"partition-{method}-{jid}",
                                      ["partition", "--model", mfile, "--method", method],
                                      "partition", {"model": model}, expect))
    warm = _write(workdir, "warmup.model.json", spin_model(rng, 3, 2))
    return Workload(compile_jobs + run_jobs + [branch_job] + partition_jobs,
                    ["partition", "--model", warm])


# -- percolation -------------------------------------------------------------------------

def _percolation(rng, workdir: str) -> Workload:
    jobs = []
    # fixed rates across the range: the defect count sets the work per seed
    for rows, cols, n_seeds, rate, axis in ((50, 50, 100, 0.3, "column"),
                                            (50, 50, 150, 0.4, "row"),
                                            (60, 60, 100, 0.5, "column")):
        seed = _cli_seed(rng)
        jobs.append(Job(f"perc-{rows}x{cols}-{n_seeds}",
                        ["percolation", "--rows", str(rows), "--cols", str(cols),
                         "--rate", str(rate), "--n-seeds", str(n_seeds), "--axis", axis,
                         "--seed", str(seed)], "percolation",
                        {"rows": rows, "cols": cols, "rate": rate, "n_seeds": n_seeds,
                         "axis": axis, "seed": seed}))
    return Workload(jobs,
                    ["percolation", "--rows", "5", "--cols", "5", "--rate", "0.3",
                     "--n-seeds", "2"])


_BUILDERS = {"stab_wide": _stab_wide, "surface_verify": _surface_verify,
             "sv_patterns": _sv_patterns, "percolation": _percolation}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` and return its jobs."""
    return _BUILDERS[name](_rng(seed, name), workdir)
