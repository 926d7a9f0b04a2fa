"""In-process tracing of the mbqc layers, from outside the package.

``Tracer.install()`` replaces each traced public function by a timing
wrapper at every place it is bound: the defining module, every
``from .x import f`` copy in the other ``mbqc`` modules, and the class for
methods.  Patching only the defining module would miss, for example, the
``apply_cz`` that ``mbqc.engine`` imported by name.  ``uninstall()`` puts the
originals back.

Each call becomes a span (name, start, end, parent, job id) kept in memory.
A span's self time is its duration minus the durations of its direct
children; self times are summed per layer group, so the groups plus the
``cli`` root group add up to the total traced time.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, group).  "Class.method" attributes are patched on the
# class; plain functions at every binding site.
TARGETS = [
    ("mbqc.engine", "MeasurementPattern.from_json_dict", "engine.parse"),
    ("mbqc.engine", "validate_pattern", "engine.parse"),
    ("mbqc.engine", "run_pattern", "engine.walk"),
    ("mbqc.engine", "enumerate_branches", "engine.walk"),
    ("mbqc.tableau", "Tableau.measure_pauli", "tableau.measure"),
    ("mbqc.tableau", "extract_subtableau", "tableau.extract"),
    ("mbqc.tableau", "Tableau.stabilizer_group_contains", "tableau.query"),
    ("mbqc.tableau", "Tableau.outcome_is_random", "tableau.query"),
    ("mbqc.tableau", "Tableau.dump", "tableau.dump"),
    ("mbqc.tableau", "graph_state_tableau", "tableau.build"),
    ("mbqc.pauli", "PauliString.__mul__", "pauli.mul"),
    ("mbqc.pauli", "symplectic_rank", "pauli.rank"),
    ("mbqc.pauli", "PauliString.to_text", "pauli.to_text"),
    ("mbqc.statevector", "apply_cz", "statevector.apply_cz"),
    ("mbqc.statevector", "measure_angle", "statevector.measure"),
    ("mbqc.statevector", "measure_probability", "statevector.measure"),
    ("mbqc.statevector", "compact", "statevector.compact"),
    ("mbqc.statevector", "extract_qubits", "statevector.compact"),
    ("mbqc.statevector", "overlap", "statevector.overlap"),
    ("mbqc.statevector", "graph_state_vector", "statevector.build"),
    ("mbqc.compiler", "compile_circuit", "compiler.compile"),
    ("mbqc.statmech", "partition_function_overlap", "statmech.overlap"),
    ("mbqc.statmech", "log_partition_function_bruteforce", "statmech.brute"),
    ("mbqc.surface", "project_syndrome_layer", "surface.project"),
    ("mbqc.surface", "verify_projection", "surface.verify"),
    ("mbqc.surface", "carve_holes", "surface.plan"),
    ("mbqc.surface", "imposed_rank", "surface.plan"),
    ("mbqc.surface", "logical_operators", "surface.plan"),
    ("mbqc.graphs", "apply_site_defects", "graphs.defects"),
    ("mbqc.graphs", "has_spanning_cluster", "graphs.spanning"),
    ("mbqc.graphs", "spanning_probability", "graphs.spanning"),
    ("mbqc.graphs", "Graph.__init__", "graphs.graph_init"),
    ("mbqc.graphs", "build_lattice", "graphs.lattice"),
    ("mbqc.rng", "OutcomeSource.draw", "rng"),
]
ROOT_GROUP = "cli"
GROUPS = [ROOT_GROUP] + sorted({g for _, _, g in TARGETS})


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (name, start, end, parent index, job id)
        self.stack: list[list] = []           # open spans: [span index, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()       # per group
        self.counts: Counter = Counter()      # derived counters filled by hooks
        self.job = None
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------------

    def _call(self, name, group, hook, fn, args, kwargs):
        stack = self.stack
        idx = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.self_s[group] += dur - frame[1]
            self.calls[group] += 1
            self.spans[idx] = (name, t0, t1, parent, self.job)

    def run_root(self, job_id: str, fn, *args):
        """Call ``fn`` as the root ``cli`` span of one job."""
        self.job = job_id
        try:
            return self._call("cli.main", ROOT_GROUP, None, fn, args, {})
        finally:
            self.job = None

    def _wrap(self, name, group, fn):
        hook = HOOKS.get(group)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, group, hook, fn, args, kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        for modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "mbqc" or k.startswith("mbqc."))]
        for modname, attr, group in TARGETS:
            mod = sys.modules[modname]
            name = f"{modname.split('.', 1)[1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, group, orig.__func__))
                else:
                    new = self._wrap(name, group, orig)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, group, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------------------

    def total_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# -- counting hooks: run inside the span, after the call returns -----------------------------

def _count_state(tracer, n: int) -> None:
    tracer.counts["statevector.bytes"] += 16 << n
    tracer.counts["statevector.peak_qubits"] = max(n, tracer.counts["statevector.peak_qubits"])


def _sv_state_hook(tracer, args, result):
    _count_state(tracer, args[0].n)


def _sv_build_hook(tracer, args, result):
    _count_state(tracer, args[0].n_vertices)


def _measure_hook(tracer, args, result):
    t = args[0]
    tracer.counts["tableau.measure.words"] += 2 * 2 * t.n * t.w


def _query_hook(tracer, args, result):
    if isinstance(args[1], str):          # outcome_is_random(basis, qubit)
        tracer.counts["tableau.random_calls"] += 1
        tracer.counts["tableau.random_true"] += bool(result)


def _walk_hook(tracer, args, result):
    tracer.counts["engine.branches"] += len(result) if isinstance(result, list) else 1


def _compile_hook(tracer, args, result):
    tracer.counts["compiler.sites"] += result.pattern.resource.n_vertices


HOOKS = {"statevector.apply_cz": _sv_state_hook, "statevector.measure": _sv_state_hook,
         "statevector.compact": _sv_state_hook, "statevector.overlap": _sv_state_hook,
         "statevector.build": _sv_build_hook, "tableau.measure": _measure_hook,
         "tableau.query": _query_hook, "engine.walk": _walk_hook,
         "compiler.compile": _compile_hook}
