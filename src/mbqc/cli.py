"""Command-line entry point.

Subcommands: graph-state, run-pattern, branches, compile, partition,
slice, percolation.  Exit codes: 0 success, 2 validation error (including
usage), 3 capacity exceeded (including running out of memory), 4
verification failure.

Every report is one compact JSON line with sorted keys.  ``--json-out``
writes it deterministically (same argv give byte-identical files); stdout
prints the same line with ``wall_time_ms`` as its last key.  ``--seed``
(run-pattern, slice, percolation) seeds the outcome and defect draws.
``--cap`` (run-pattern, branches, partition) overrides the statevector
qubit cap, defaulting to the ``MBQC_CAP`` environment variable when set; for
a pattern walk it counts the peak live sites, those prepared and not yet
measured, and for ``partition`` the decorated resource.

Each subcommand imports the layers it uses in its own body, so start-up
loads only ``graphs`` (percolation needs nothing else).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
import time

from .errors import (CapacityError, ContradictionError, MbqcError,
                     ValidationError, VerificationError, check_memory)
from . import __version__
from .graphs import Graph, LatticeSpec, build_lattice, spanning_probability

SCHEMA_VERSION = 1
ROW_BYTES = 1024, 48    # a branches row, its table entry and encoded text: base, per command

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_CAPACITY = 3
_EXIT_VERIFICATION = 4


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _atomic_write(path: str, text: str) -> None:
    d, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".mbqc-tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _parse_forced(text: str | None) -> dict[int, int]:
    forced: dict[int, int] = {}
    for item in filter(None, (part.strip() for part in (text or "").split(","))):
        site, _, bit = item.partition("=")
        try:
            site, bit = int(site), ("0", "1").index(bit.strip())
        except ValueError as exc:
            raise ValidationError(
                f"bad --force-outcomes entry {item!r} (want site=bit, bit 0 or 1)") from exc
        if site in forced:
            raise ValidationError(f"--force-outcomes names site {site} twice")
        forced[site] = bit
    return forced


def _check_forced_measured(forced: dict[int, int], measured) -> None:
    unmeasured = sorted(set(forced) - set(measured))
    if unmeasured:
        raise ValidationError(f"--force-outcomes names sites that are never measured: {unmeasured}")


def _emit(args, result: dict, wall_ms: float) -> None:
    """Serialise once, as one compact line with sorted keys (no indent, so
    ``json`` takes its C encoder); ``--json-out`` gets that line, and stdout
    the same with ``wall_time_ms``, which sorts last, put before the ``}``."""
    report = {"schema_version": SCHEMA_VERSION, "command": args._argv,
              "seed": getattr(args, "seed", None), "backend": getattr(args, "backend", None),
              "result": result}
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if args.json_out:
        _atomic_write(args.json_out, text + "\n")
    try:
        print(f'{text[:-1]},"wall_time_ms":{json.dumps(round(wall_ms, 3))}}}', flush=True)
    except OSError as exc:      # a closed pipe, say: devnull takes what the exit flush writes
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ValidationError(f"cannot write stdout: {exc}") from exc


def _resolve_cap(args) -> int:
    from .statevector import DEFAULT_CAP
    cap, env = args.cap, os.environ.get("MBQC_CAP")
    if cap is None:
        try:
            cap = int(env) if env else DEFAULT_CAP
        except ValueError as exc:
            raise ValidationError(f"MBQC_CAP={env!r} is not an integer") from exc
    if cap < 0:
        raise ValidationError(f"cap must be a non-negative qubit count, got {cap}")
    return cap


def _backend_name(short: str) -> str:
    return {"sv": "statevector", "stab": "stabilizer"}[short]


def _stabilizer_texts(t) -> list[str]:
    """One text row per stabilizer of a Tableau: [] for 0 qubits, whose dump is ""."""
    return t.dump().split("\n") if t.n else []


# -- subcommand bodies --------------------------------------------------------

def _cmd_graph_state(args) -> dict:
    from .tableau import check_capacity, graph_state_tableau
    if args.lattice is not None:
        spec = LatticeSpec.from_json_dict(_load_json(args.lattice))
        check_capacity(spec.n_vertices)
        graph = build_lattice(spec)
    else:
        graph = Graph.from_json_dict(_load_json(args.graph))
    return {"graph": graph.to_json_dict(),
            "stabilizers": _stabilizer_texts(graph_state_tableau(graph))}


def _cmd_run_pattern(args) -> dict:
    from .engine import MeasurementPattern, run_pattern
    from .tableau import Tableau
    pattern = MeasurementPattern.from_json_dict(_load_json(args.pattern))
    forced = _parse_forced(args.force_outcomes)
    _check_forced_measured(forced, pattern.measured_sites)
    rec = run_pattern(pattern, backend=_backend_name(args.backend),
                      randomness=args.seed, forced=forced, cap=_resolve_cap(args))
    out = rec.output_state
    return {"outcomes": {str(k): v for k, v in sorted(rec.outcomes.items())},
            "frame": rec.frame.to_json_dict(),
            "probability": rec.probability,
            "log2_probability": rec.log2_probability,
            "output_sites": list(rec.output_sites),
            "output_state": (_stabilizer_texts(out) if isinstance(out, Tableau)
                             else {"n": out.n})}


def _cmd_branches(args) -> dict:
    from .engine import MeasurementPattern, enumerate_branches
    pattern = MeasurementPattern.from_json_dict(_load_json(args.pattern))
    table = enumerate_branches(pattern, backend=_backend_name(args.backend),
                               branch_cap=args.branch_cap, cap=_resolve_cap(args), _table=True)
    sites = [str(c.site) for c in pattern.commands]     # one key list serves every row
    check_memory(len(table) * (ROW_BYTES[0] + ROW_BYTES[1] * len(sites)),
                 f"a report of {len(table)} branches")
    frames = [f.to_json_dict() for f in table.frames]     # shared by the branches of a frame
    rows = zip(table, table.probability, table.log2_probability, table.frame_index)
    return {"n_branches": len(table), "probability_sum": sum(table.probability),
            "branches": [{"outcomes": dict(zip(sites, o)), "probability": prob,
                          "log2_probability": log2_prob, "frame": frames[f]}
                         for o, prob, log2_prob, f in rows]}


def _cmd_compile(args) -> dict:
    from .compiler import Circuit, compile_circuit
    from .engine import validate_pattern
    circuit = Circuit.from_json_dict(_load_json(args.circuit))
    prog = compile_circuit(circuit)
    issues = validate_pattern(prog.pattern)
    if issues:
        raise VerificationError("compiled pattern invalid: " + "; ".join(issues))
    if args.out:
        _atomic_write(args.out, prog.pattern.to_json() + "\n")
    return {"n_sites": prog.pattern.resource.n_vertices,
            "grid": [prog.n_rows, prog.n_cols],
            "n_measured": len(prog.pattern.commands),
            "output_map": {str(k): v for k, v in sorted(prog.output_map.items())},
            "pattern_file": args.out}


def _cmd_partition(args) -> dict:
    import math
    from .statmech import (SpinModel, log_partition_function_bruteforce,
                           log_partition_function_overlap)
    model = SpinModel.from_json_dict(_load_json(args.model))
    if args.method == "brute":
        log_z = log_partition_function_bruteforce(model)
    else:
        log_z = log_partition_function_overlap(model, cap=_resolve_cap(args))
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = None
    return {"method": args.method, "Z": z, "log_Z": log_z,
            "n_spins": model.graph.n_vertices,
            "n_interactions": model.graph.n_edges}


def _cmd_slice(args) -> dict:
    from .surface import (HoleSpec, SliceLayout, carve_holes, imposed_rank,
                          logical_operators, project_syndrome_layer,
                          verify_projection)
    layout = SliceLayout.from_json_dict(_load_json(args.layout))
    holes = (HoleSpec.from_json_dict(_load_json(args.holes))
             if args.holes else HoleSpec())
    plan = carve_holes(layout, holes)
    forced = _parse_forced(args.force_outcomes)
    result = project_syndrome_layer(layout, randomness=args.seed, plan=plan, forced=forced)
    _check_forced_measured(forced, result.outcomes)
    out: dict = {"layout": layout.to_json_dict(),
                 "holes": holes.to_json_dict(),
                 "n_cluster_qubits": layout.n_cluster,
                 "n_code_qubits": layout.n_code,
                 "outcomes": {str(k): v for k, v in sorted(result.outcomes.items())},
                 "imposed_rank": imposed_rank(layout, plan)}
    for kind in ("electric", "magnetic"):
        if getattr(holes, kind):
            zb, xb = logical_operators(layout, holes, kind)
            out[f"{kind}_logicals"] = {"Z": zb.to_text(), "X": xb.to_text()}
    if args.verify:
        report = verify_projection(result)
        out["verification"] = report
        if not report["passed"]:
            raise VerificationError(
                f"{len(report['failures'])} stabilizer checks failed")
    return out


def _cmd_percolation(args) -> dict:
    if not (0.0 <= args.rate <= 1.0):
        raise ValidationError("defect rate must lie in [0, 1]")
    if args.n_seeds < 1:
        raise ValidationError(f"--n-seeds must be at least 1, got {args.n_seeds}")
    spec = LatticeSpec("grid2d", [args.rows, args.cols])
    seeds = range(args.seed, args.seed + args.n_seeds)
    frac = spanning_probability(spec, args.rate, seeds, axis=args.axis)
    return {"rows": args.rows, "cols": args.cols, "defect_rate": args.rate,
            "axis": args.axis, "n_seeds": args.n_seeds,
            "spanning_probability": frac}


# -- wiring --------------------------------------------------------------------

def _build_parser() -> _CliParser:
    parser = _CliParser(prog="mbqc",
                        description="measurement-based quantum computation simulator")
    parser.add_argument("--version", action="version", version=f"mbqc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, cap=False, backend=False, seed=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--json-out", default=None, metavar="PATH",
                       help="write a deterministic JSON report here")
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="statevector qubit cap: a pattern walk's peak live sites, "
                                "partition's decorated resource (default: MBQC_CAP or 22)")
        if backend:
            p.add_argument("--backend", choices=("sv", "stab"), default="sv")

    p = sub.add_parser("graph-state", help="build a graph state and dump stabilizers")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lattice", help="LatticeSpec JSON file")
    source.add_argument("--graph", help="Graph JSON file")
    common(p)
    p.set_defaults(func=_cmd_graph_state, layer="tableau")

    p = sub.add_parser("run-pattern", help="execute one branch of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--force-outcomes", default=None, metavar="SITE=BIT,...")
    common(p, cap=True, backend=True, seed=True)
    p.set_defaults(func=_cmd_run_pattern, layer="engine")

    p = sub.add_parser("branches", help="enumerate every branch of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--branch-cap", type=int, default=1 << 16)
    common(p, cap=True, backend=True)
    p.set_defaults(func=_cmd_branches, layer="engine")

    p = sub.add_parser("compile", help="compile a circuit to a pattern")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", default=None, help="write the pattern JSON here")
    common(p)
    p.set_defaults(func=_cmd_compile, layer="compiler")

    p = sub.add_parser("partition", help="spin-model partition function")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("overlap", "brute"), default="overlap")
    common(p, cap=True)
    p.set_defaults(func=_cmd_partition, layer="statmech")

    p = sub.add_parser("slice", help="project a cluster slice into a surface code")
    p.add_argument("--layout", required=True)
    p.add_argument("--holes", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--force-outcomes", default=None, metavar="SITE=BIT,...")
    common(p, seed=True)
    p.set_defaults(func=_cmd_slice, layer="surface")

    p = sub.add_parser("percolation", help="site-defect spanning statistics")
    p.add_argument("--rows", type=int, default=50)
    p.add_argument("--cols", type=int, default=50)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--n-seeds", type=int, default=200,
                   help="seeds to average over, at least 1; the work grows with it "
                        "without bound, up to about 3 ms per 50x50 seed")
    p.add_argument("--axis", choices=("row", "column"), default="column")
    common(p, seed=True)
    p.set_defaults(func=_cmd_percolation, layer=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        if args.layer:      # before the clock: wall time is time to result after imports
            importlib.import_module(f".{args.layer}", __package__)
        t0 = time.perf_counter()
        result = args.func(args)
        _emit(args, result, 1000.0 * (time.perf_counter() - t0))
        return _EXIT_OK
    except (ValidationError, ContradictionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except (CapacityError, MemoryError) as exc:
        print(f"capacity exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return _EXIT_VERIFICATION
    except MbqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
