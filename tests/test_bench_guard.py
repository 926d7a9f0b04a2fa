"""Guards for what the benchmark's traced run relies on.

``perfbench/tracing.py`` wraps every name in its ``TARGETS`` list, and its
traced run checks ``tableau.measure.calls`` against the number of
measurement commands in the inputs.  A renamed target or an extra
``measure_pauli`` call would break that run without failing any other test.
Likewise a parser stricter than the inputs ``perfbench/workloads.py`` writes
would fail benchmark jobs, and a walk that projects per branch rather than
per command would give back the ``branches`` job's time.  A tableau whose
arrays are made or copied in row-major order gives the same results but
reads each measured qubit's word column with a stride, which is the
measurement time that the column-major layout saves.
"""
import importlib
import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import random_graph, schema_validator
from mbqc import engine, pauli, statmech, tableau
from mbqc.compiler import Circuit
from mbqc.engine import (MeasurementCommand, MeasurementPattern, enumerate_branches, run_pattern,
                         validate_pattern)
from mbqc.graphs import Graph, LatticeSpec
from mbqc.pauli import unpack_bits
from mbqc.rng import OutcomeSource
from mbqc.statmech import SpinModel
from mbqc.surface import HoleSpec, SliceLayout
from mbqc.tableau import Tableau, extract_subtableau, graph_state_tableau


def _load_perfbench(name, monkeypatch):
    """Load ``perfbench/<name>.py`` by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)     # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def _tracing_targets(monkeypatch):
    return _load_perfbench("tracing", monkeypatch).TARGETS


def test_every_tracing_target_resolves(monkeypatch):
    missing = []
    for modname, attr, _ in _tracing_targets(monkeypatch):
        owner = importlib.import_module(modname)
        *cls, name = attr.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        fn = vars(owner).get(name) if owner is not None else None
        if not callable(getattr(fn, "__func__", fn)):       # classmethods unwrapped
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _clifford_pattern(n, rng):
    """Random graph measured in a random order, each command XY at a
    multiple of pi/2 or (3 in 10) Z; the last two sites are the outputs."""
    commands = [MeasurementCommand(s, "Z", 0.0) if rng.random() < 0.3 else
                MeasurementCommand(s, "XY", int(rng.integers(4)) * math.pi / 2)
                for s in rng.permutation(n - 2).tolist()]
    return MeasurementPattern(random_graph(n, rng, p=0.3), [], [n - 2, n - 1], commands)


def test_stabilizer_run_measures_once_per_command(rng, monkeypatch):
    """One ``measure_pauli`` per command reads the qubit's column once; the
    run's source is asked once per command, with p0 = 1 or 0 for the
    deterministic outcomes, and ``outcome_is_random`` is not called."""
    calls = {"measure": 0, "choose": 0, "deterministic": 0}
    measure, choose = Tableau.measure_pauli, OutcomeSource.choose

    def counting_measure(self, *args, **kwargs):
        calls["measure"] += 1
        return measure(self, *args, **kwargs)

    def counting_choose(self, key, p0):
        calls["choose"] += 1
        calls["deterministic"] += p0 in (0.0, 1.0)
        return choose(self, key, p0)

    def no_query(self, *args, **kwargs):
        raise AssertionError("outcome_is_random called in a run")

    monkeypatch.setattr(Tableau, "measure_pauli", counting_measure)
    monkeypatch.setattr(OutcomeSource, "choose", counting_choose)
    monkeypatch.setattr(Tableau, "outcome_is_random", no_query)
    n_commands = 0
    for seed in range(8):
        p = _clifford_pattern(12, rng)
        assert validate_pattern(p) == []
        rec = run_pattern(p, backend="stabilizer", randomness=seed)
        n_commands += len(p.commands)
        assert len(rec.outcomes) == len(p.commands)
        assert calls["measure"] == calls["choose"] == n_commands
    assert calls["deterministic"] > 0


def test_stabilizer_enumeration_is_k_plus_one_runs(rng, monkeypatch):
    """Enumeration on the stabilizer backend is a reference run and one run per
    random command, each measuring every command once: at most (k + 1) x
    commands ``measure_pauli`` calls for 2^k branches, with no tableau copied
    and ``outcome_is_random`` not called."""
    calls = {"measure": 0}
    measure = Tableau.measure_pauli

    def counting_measure(self, *args, **kwargs):
        calls["measure"] += 1
        return measure(self, *args, **kwargs)

    def refuse(name):
        def refused(self, *args, **kwargs):
            raise AssertionError(f"{name} called in an enumeration")
        return refused

    monkeypatch.setattr(Tableau, "measure_pauli", counting_measure)
    monkeypatch.setattr(Tableau, "outcome_is_random", refuse("outcome_is_random"))
    monkeypatch.setattr(Tableau, "copy", refuse("Tableau.copy"))
    pruned = False
    for _ in range(8):
        p = _clifford_pattern(10, rng)
        calls["measure"] = 0
        branches = enumerate_branches(p, backend="stabilizer")
        k = len(branches).bit_length() - 1
        assert len(branches) == 2 ** k
        assert calls["measure"] <= (k + 1) * len(p.commands)
        pruned |= k < len(p.commands)
    assert pruned      # deterministic outcomes were met


def test_stabilizer_enumeration_of_the_2x9_wire(monkeypatch, tmp_path, capsys):
    """The 2 x 9 cluster wire of ``perfbench/workloads.py`` (rng seed 1), whose
    16 commands are all random, enumerates 65,536 branches through the CLI;
    their probabilities, 2^-16 each, sum to exactly 1."""
    from mbqc.cli import main
    wire = _load_perfbench("workloads", monkeypatch).cluster_wire(np.random.default_rng(1), 2, 9)
    path = tmp_path / "wire.json"
    path.write_text(json.dumps(wire))
    assert main(["branches", "--pattern", str(path), "--backend", "stab"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["n_branches"] == 65536 and result["probability_sum"] == 1.0


def test_statevector_walk_projects_once_per_command(rng, monkeypatch):
    """The level walk projects every live branch of a command in one call:
    enumerating a 14-command pattern (16,384 branches) makes at most one
    ``_project`` call per command, not one per branch, and a seeded run
    still asks its source once per command."""
    calls = Counter()
    project, choose = engine._project, OutcomeSource.choose

    def counting_project(*args):
        calls["project"] += 1
        return project(*args)

    def counting_choose(self, key, p0):
        calls["choose"] += 1
        return choose(self, key, p0)

    monkeypatch.setattr(engine, "_project", counting_project)
    monkeypatch.setattr(OutcomeSource, "choose", counting_choose)
    n = 16
    commands = [MeasurementCommand(s, "XY", float(rng.uniform(-np.pi, np.pi)))
                for s in rng.permutation(n - 2).tolist()]
    p = MeasurementPattern(random_graph(n, rng, p=0.3), [], [n - 2, n - 1], commands)
    assert len(enumerate_branches(p)) == 2 ** 14
    assert 0 < calls["project"] <= len(commands)
    for seed in range(3):
        calls.clear()
        assert len(run_pattern(p, randomness=seed).outcomes) == len(commands)
        assert calls["choose"] == len(commands)
        assert calls["project"] <= len(commands)


def test_branches_report_builds_no_per_branch_objects(rng, monkeypatch, tmp_path, capsys):
    """``branches`` reads the walk's arrays: on a 14-command statevector
    pattern (16,384 branches) it builds no ``BranchRecord`` and no output
    ``StateVector`` per branch (only the prepared resource state), and one
    ``PauliFrame`` per distinct frame, at most 2^4 for two output sites."""
    from mbqc import cli
    from mbqc.statevector import StateVector
    made = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls.__name__] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in (StateVector, engine.BranchRecord, engine.PauliFrame):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    n = 16
    commands = [MeasurementCommand(s, "XY", float(rng.uniform(-np.pi, np.pi)))
                for s in rng.permutation(n - 2).tolist()]
    corrections = {c.site: {"x_on": [n - 2], "z_on": [n - 1]} for c in commands[::3]}
    p = MeasurementPattern(random_graph(n, rng, p=0.3), [], [n - 2, n - 1], commands,
                           corrections)
    path = tmp_path / "p.json"
    path.write_text(p.to_json())
    assert cli.main(["branches", "--pattern", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["n_branches"] == 2 ** 14
    assert made["BranchRecord"] == 0
    assert made["StateVector"] <= 1
    assert 0 < made["PauliFrame"] <= 16


def test_measurement_keeps_destabilizers_sparse(monkeypatch):
    """A random outcome factors the qubit out, so the destabilizer rows that
    measurement hands ``_mul_rows`` stay few.  On this 400-site wire the
    textbook update, which moves each old pivot into a destabilizer, hands
    it 2,518 destabilizer rows; factoring hands it 266."""
    n = 400
    rng = np.random.default_rng(400)
    commands = [MeasurementCommand(s, "Z", 0.0) if rng.random() < 0.1 else
                MeasurementCommand(s, "XY", int(rng.integers(4)) * math.pi / 2)
                for s in range(n - 1)]
    wire = MeasurementPattern(Graph(n, [(v, v + 1) for v in range(n - 1)]), [], [n - 1],
                              commands)
    seen = {"destabilizer_rows": 0}
    mul_rows = tableau._mul_rows

    def counting_mul_rows(xz, signs, rows, *args):
        seen["destabilizer_rows"] += int(np.count_nonzero(rows < len(xz) - len(signs)))
        return mul_rows(xz, signs, rows, *args)

    monkeypatch.setattr(tableau, "_mul_rows", counting_mul_rows)
    run_pattern(wire, backend="stabilizer", randomness=1)
    assert 0 < seen["destabilizer_rows"] <= n


def test_tableau_arrays_stay_column_major(rng):
    """Every way a tableau is made or changed leaves its stacked ``xz``
    column-major, so a qubit's x and z word columns are one contiguous run,
    with ``xs`` and ``zs`` views of it whose rows are adjacent words.  The
    tableaus are wider than one word, where the two orders differ."""
    n = 150

    def assert_column_major(t):
        assert t.xz.flags.f_contiguous
        for half in (t.xs, t.zs):
            assert half.strides[0] == 8 and np.shares_memory(half, t.xz)

    chain = Graph(n, [(v, v + 1) for v in range(n - 1)])
    assert_column_major(Tableau(n))
    assert_column_major(Tableau.plus_state(n))
    t = graph_state_tableau(chain)
    assert_column_major(t)
    for q in rng.permutation(n)[:70].tolist():
        t.measure_pauli("XYZ"[q % 3], q, randomness=q)
        assert_column_major(t)
    for gate, targets in (("H", [3]), ("S", [80]), ("CZ", [70, 140]), ("CNOT", [149, 0])):
        assert_column_major(t.apply_clifford(gate, targets))
    assert_column_major(t.copy())
    wire = graph_state_tableau(chain)
    for q in range(n - 70):
        wire.measure_pauli("Z", q, randomness=q)
    assert_column_major(extract_subtableau(wire, range(n - 70, n)))


def test_extraction_multiplies_rows_only_where_no_one_qubit_row(rng, monkeypatch):
    """A measured qubit is usually left with a one-qubit stabilizer row, and
    those rows are cleared in one packed pass; only the dropped qubits
    without one may cost a row multiply (``_eliminate``, one per qubit for a
    product state), not one or two per dropped qubit."""
    n = 401
    commands = [MeasurementCommand(s, "Z", 0.0) if rng.random() < 0.1 else
                MeasurementCommand(s, "XY", int(rng.integers(4)) * math.pi / 2)
                for s in range(n - 1)]
    wire = MeasurementPattern(Graph(n, [(v, v + 1) for v in range(n - 1)]), [], [n - 1],
                              commands)
    seen = {"calls": 0}
    extract, mul_rows = engine.extract_subtableau, pauli._mul_rows

    def counting_extract(t, keep):
        support = unpack_bits(t.xs[t.n:] | t.zs[t.n:], t.n)
        one_qubit = {int(np.flatnonzero(row)[0]) for row in support if row.sum() == 1}
        seen["remainder"] = len(set(range(t.n)) - set(keep) - one_qubit)
        seen["calls"] = 0
        return extract(t, keep)

    def counting_mul_rows(*args):
        seen["calls"] += 1
        return mul_rows(*args)

    monkeypatch.setattr(engine, "extract_subtableau", counting_extract)
    monkeypatch.setattr(pauli, "_mul_rows", counting_mul_rows)
    rec = run_pattern(wire, backend="stabilizer", randomness=3)
    assert rec.output_state.n == 1
    assert seen["calls"] <= seen["remainder"]


# Input-file suffix -> (schema, library parser) for every benchmark input.
_INPUT_KINDS = {
    ".pattern.json": ("pattern.schema.json", MeasurementPattern.from_json_dict),
    ".layout.json": ("layout.schema.json", SliceLayout.from_json_dict),
    ".holes.json": ("holes.schema.json", HoleSpec.from_json_dict),
    ".lattice.json": ("lattice.schema.json", LatticeSpec.from_json_dict),
    ".circuit.json": ("circuit.schema.json", Circuit.from_json_dict),
    ".model.json": ("spin_model.schema.json", SpinModel.from_json_dict),
}


@pytest.mark.parametrize("seed", [1, 20261017])
def test_benchmark_inputs_obey_the_schemas(seed, tmp_path, monkeypatch):
    """Every input a benchmark workload writes validates against its schema
    and parses, so stricter parsers never fail a benchmark job."""
    workloads = _load_perfbench("workloads", monkeypatch)
    checked = Counter()
    for name in workloads.WORKLOADS:
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        workloads.build(name, seed, str(workdir))
        for path in sorted(workdir.iterdir()):
            suffix = "".join(path.suffixes[-2:])
            assert suffix in _INPUT_KINDS, path.name
            schema, parse = _INPUT_KINDS[suffix]
            doc = json.loads(path.read_text())
            schema_validator(schema).validate(doc)
            parse(doc)
            checked[suffix] += 1
    assert set(checked) == set(_INPUT_KINDS)


def test_statevector_walk_entangles_each_edge_once_within_live_width(rng, monkeypatch):
    """The traced benchmark counts one ``apply_cz`` per resource edge per
    statevector walk (``statevector.apply_cz.calls``): each edge is entangled
    once, on the whole level, whether the walk is a run, an enumeration or
    the CLI's table, and whatever its outputs' edges.  No level handed to
    ``_project`` is wider than 2^W amplitudes for the walk's peak live width
    W, which on these patterns is below the site count."""
    calls = Counter()
    cz, project = engine.apply_cz, engine._project

    def counting_cz(state, a, b):
        calls["cz"] += 1
        return cz(state, a, b)

    def width_checking_project(amps, *args):
        calls["widest"] = max(calls["widest"], amps.shape[1])
        return project(amps, *args)

    monkeypatch.setattr(engine, "apply_cz", counting_cz)
    monkeypatch.setattr(engine, "_project", width_checking_project)
    narrower = 0
    for _ in range(12):
        n = int(rng.integers(3, 11))
        outputs = rng.permutation(n)[:int(rng.integers(1, 4))].tolist()
        commands = [MeasurementCommand(s, "XY", float(rng.uniform(-np.pi, np.pi)))
                    for s in rng.permutation(n).tolist() if s not in outputs]
        p = MeasurementPattern(random_graph(n, rng, p=0.35), [], outputs, commands)
        width = max(engine._entangling_schedule(p)[1])
        narrower += width < n
        for walk in (lambda: run_pattern(p, randomness=3), lambda: enumerate_branches(p),
                     lambda: enumerate_branches(p, _table=True)):
            calls.clear()
            walk()
            assert calls["cz"] == p.resource.n_edges
            assert calls["widest"] <= 1 << width
    assert narrower


def test_overlap_entangles_each_edge_twice_within_live_width(rng, monkeypatch):
    """The traced benchmark counts 2m ``apply_cz`` calls for a ``partition``
    job of m interactions (``statevector.apply_cz.calls``): the overlap walk
    applies each edge qubit's two CZs once, through ``engine.apply_cz``.  No
    array it contracts is wider than 2^W amplitudes for the walk's peak live
    width W, which on these models is below the decorated qubit count."""
    workloads = _load_perfbench("workloads", monkeypatch)
    calls = Counter()
    cz, contract = engine.apply_cz, statmech._contract

    def counting_cz(state, a, b):
        calls["cz"] += 1
        return cz(state, a, b)

    def width_checking_contract(amps, *args):
        calls["widest"] = max(calls["widest"], amps.shape[1])
        return contract(amps, *args)

    monkeypatch.setattr(engine, "apply_cz", counting_cz)
    monkeypatch.setattr(statmech, "_contract", width_checking_contract)
    for n, m in ((8, 12), (9, 12), (3, 2), (12, 30), (6, 0)):
        model = SpinModel.from_json_dict(workloads.spin_model(rng, n, m))
        order = statmech._contraction_order(model.graph)
        width = max(engine._entangling_schedule(MeasurementPattern(
            statmech.decorate(model).decorated_graph, [], [],
            [MeasurementCommand(q, "Z") for q in order]))[1])
        assert width < n + m
        calls.clear()
        statmech.log_partition_function_overlap(model, cap=width)
        assert calls["cz"] == 2 * m
        assert calls["widest"] <= 1 << width
