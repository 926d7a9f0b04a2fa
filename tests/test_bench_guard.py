"""Guards for what the benchmark's traced run relies on.

``perfbench/tracing.py`` wraps every name in its ``TARGETS`` list, and its
traced run checks ``tableau.measure.calls`` against the number of
measurement commands in the inputs.  A renamed target or an extra
``measure_pauli`` call would break that run without failing any other test.
"""
import importlib
import importlib.util
import math
from pathlib import Path

from conftest import random_graph
from mbqc.engine import MeasurementCommand, MeasurementPattern, run_pattern, validate_pattern
from mbqc.tableau import Tableau


def _tracing_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_tracing_target_resolves():
    missing = []
    for modname, attr, _ in _tracing_targets():
        owner = importlib.import_module(modname)
        *cls, name = attr.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        fn = vars(owner).get(name) if owner is not None else None
        if not callable(getattr(fn, "__func__", fn)):       # classmethods unwrapped
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_stabilizer_run_measures_once_per_command(rng, monkeypatch):
    calls = {"measure": 0, "deterministic": 0}
    measure, is_random = Tableau.measure_pauli, Tableau.outcome_is_random

    def counting_measure(self, *args, **kwargs):
        calls["measure"] += 1
        return measure(self, *args, **kwargs)

    def counting_is_random(self, *args, **kwargs):
        result = is_random(self, *args, **kwargs)
        calls["deterministic"] += not result
        return result

    monkeypatch.setattr(Tableau, "measure_pauli", counting_measure)
    monkeypatch.setattr(Tableau, "outcome_is_random", counting_is_random)
    n_commands = 0
    for seed in range(8):
        n = 12
        commands = [MeasurementCommand(s, "Z", 0.0) if rng.random() < 0.3 else
                    MeasurementCommand(s, "XY", int(rng.integers(4)) * math.pi / 2)
                    for s in rng.permutation(n - 2).tolist()]
        p = MeasurementPattern(random_graph(n, rng, p=0.3), [], [n - 2, n - 1], commands)
        assert validate_pattern(p) == []
        rec = run_pattern(p, backend="stabilizer", randomness=seed)
        n_commands += len(commands)
        assert len(rec.outcomes) == len(commands)
        assert calls["measure"] == n_commands
    assert calls["deterministic"] > 0
