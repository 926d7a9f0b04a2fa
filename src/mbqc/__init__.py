"""Measurement-based quantum computation simulator.

Graph states on arbitrary graphs, a bit-packed stabilizer tableau
backend, a dense statevector backend, adaptive measurement patterns with
Pauli-frame tracking, a circuit-to-cluster compiler, spin-model partition
functions via graph-state overlaps, and surface-code slice projection.

The exports below load their module on first use (PEP 562), so
``import mbqc`` costs nothing until a name is read.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapacityError", "ContradictionError", "MbqcError", "ValidationError",
               "VerificationError"),
    "graphs": ("DefectMask", "Graph", "LatticeSpec", "apply_site_defects", "build_lattice",
               "has_spanning_cluster"),
    "pauli": ("PauliString",),
    "statevector": ("ProductState", "StateVector", "fidelity_up_to_phase",
                    "graph_state_vector", "measure_angle", "overlap"),
    "tableau": ("Tableau", "graph_state_tableau", "tableau_to_statevector"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
