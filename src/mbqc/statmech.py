"""Classical spin models and their partition functions as state overlaps.

An Ising-type model lives on an interaction graph: energy
``E(s) = -sum_edges J_ab s_a s_b - sum_vertices h_a s_a`` over spins
``s = +/-1``, with the inverse temperature folded into a single ``beta``.

The partition function is computed two independent ways:

* ``partition_function_bruteforce``: the literal sum over all 2^n
  configurations, accumulated in the log domain so large ``beta*J`` does
  not overflow;
* ``partition_function_overlap``: decorate the graph with one qubit per
  spin and one per interaction edge, and contract that graph state
  against the product state with vertex coefficients
  ``(e^{beta h}, e^{-beta h})`` and edge coefficients
  ``(cosh(beta J), sinh(beta J))``.  Then
  ``Z = 2^{(n+m)/2} * <product|G>`` exactly, which the brute-force oracle
  pins down in the test suite.

Both come in a ``log_`` form, which stays finite where Z overflows.

Summing the edge qubit of an edge (a,b) against the graph-state phases
reproduces the Boltzmann weight ``e^{beta J s_a s_b}``, and the vertex
coefficients supply ``e^{beta h s_a}``; the prefactor absorbs the
graph-state normalization.  Coefficients are rescaled per qubit with a
log-tracked prefactor, so models deep in the ordered regime stay finite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (CapacityError, ValidationError, VerificationError, json_index, json_number,
                     json_object)
from .graphs import Graph
from .statevector import DEFAULT_CAP, ProductState, StateVector, append_plus, apply_cz, overlap

BRUTE_CAP = 24
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SpinModel:
    """Couplings and fields keyed exactly by the graph's edges/vertices."""

    graph: Graph
    couplings: dict[tuple[int, int], float]
    fields: dict[int, float]
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError("beta must be finite and positive")
        edges = set(self.graph.edges)
        keys = set(self.couplings)
        if keys != edges:
            raise ValidationError("couplings must be keyed exactly by the edge set")
        verts = set(range(self.graph.n_vertices))
        if set(self.fields) != verts:
            raise ValidationError("fields must be keyed exactly by the vertex set")
        # bounds |beta*E| for every configuration, so no weight either method forms overflows
        bound = sum(self.beta * abs(v) for v in [*self.couplings.values(), *self.fields.values()])
        if not math.isfinite(bound):
            raise ValidationError(f"sum of beta*|J| and beta*|h| must be finite, got {bound}")

    @classmethod
    def build(cls, graph: Graph, couplings: Mapping, fields: Mapping,
              beta: float) -> "SpinModel":
        canon = {}
        for (a, b), j in couplings.items():
            key = (a, b) if a < b else (b, a)
            canon[key] = float(j)
        return cls(graph, canon, {int(k): float(v) for k, v in fields.items()},
                   float(beta))

    @classmethod
    def uniform(cls, graph: Graph, j: float, h: float, beta: float) -> "SpinModel":
        return cls(graph, {e: float(j) for e in graph.edges},
                   {v: float(h) for v in range(graph.n_vertices)}, float(beta))

    def to_json_dict(self) -> dict:
        return {"graph": self.graph.to_json_dict(),
                "J": {f"{a}-{b}": j for (a, b), j in sorted(self.couplings.items())},
                "h": {str(v): h for v, h in sorted(self.fields.items())},
                "beta": self.beta}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpinModel":
        try:
            d = json_object(d, ("graph", "J", "h", "beta"), "spin model JSON", ("q",))
            graph = Graph.from_json_dict(d["graph"])
            couplings = {}
            for key, j in d["J"].items():
                a, b = key.split("-")
                couplings[(json_index(a, "J key"), json_index(b, "J key"))] = json_number(
                    j, f"J[{key}]")
            fields = {json_index(k, "h key"): json_number(v, f"h[{k}]") for k, v in d["h"].items()}
            if d.get("q", 2) != 2:          # the schema's Potts field; Ising only
                raise ValidationError("only q=2 (Ising) models are supported")
            return cls.build(graph, couplings, fields, json_number(d["beta"], "beta"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad spin model JSON: {exc}") from exc

    @classmethod
    def from_json(cls, s: str) -> "SpinModel":
        return cls.from_json_dict(json.loads(s))


def energy(model: SpinModel, config) -> float:
    """Exact energy of one +/-1 spin assignment."""
    s = np.asarray(config, dtype=np.int64)
    if s.shape != (model.graph.n_vertices,):
        raise ValidationError("config length does not match vertex count")
    if not np.all(np.abs(s) == 1):
        raise ValidationError("spins must be +1 or -1")
    e = 0.0
    for (a, b), j in model.couplings.items():
        e -= j * s[a] * s[b]
    for v, h in model.fields.items():
        e -= h * s[v]
    return float(e)


def log_partition_function_bruteforce(model: SpinModel) -> float:
    """log Z by full enumeration, in blocks, log-sum-exp stabilized."""
    n = model.graph.n_vertices
    if n > BRUTE_CAP:
        raise CapacityError(f"{n} spins exceeds brute-force cap {BRUTE_CAP}")
    edges = list(model.couplings.items())
    fields = model.fields
    total = 1 << n
    best = -np.inf
    acc = 0.0
    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        # spin of vertex v read from bit (n-1-v): matches statevector bit order
        spins = 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
        w = np.zeros(len(idx), dtype=np.float64)
        for (a, b), j in edges:
            w += model.beta * j * spins[:, a] * spins[:, b]
        for v, h in fields.items():
            w += model.beta * h * spins[:, v]
        m = float(w.max())
        block = float(np.exp(w - m).sum())
        if m > best:
            acc = acc * math.exp(best - m) + block
            best = m
        else:
            acc += block * math.exp(m - best)
    return best + math.log(acc)


def partition_function_bruteforce(model: SpinModel) -> float:
    return float(math.exp(log_partition_function_bruteforce(model)))


@dataclass(frozen=True)
class DecoratedResource:
    """Decorated graph (spins first, then one qubit per edge) plus the
    product-state coefficients and the 2^{(n+m)/2} normalization."""

    decorated_graph: Graph
    local_states: ProductState
    normalization_log2: float
    coeff_log_scale: float          # log of the factor divided out per qubit


def decorate(model: SpinModel) -> DecoratedResource:
    """Build the decorated resource; spin qubits keep their vertex index,
    edge qubit k sits at index n+k following canonical edge order."""
    n = model.graph.n_vertices
    m = model.graph.n_edges
    edges = []
    coeffs = []
    log_scale = 0.0
    for v in range(n):
        bh = model.beta * model.fields[v]
        scale = abs(bh)
        log_scale += scale
        coeffs.append((math.exp(bh - scale), math.exp(-bh - scale)))
    for k, (a, b) in enumerate(model.graph.edges):
        e = n + k
        edges.append((a, e))
        edges.append((e, b))
        bj = model.beta * model.couplings[(a, b)]
        log_scale += abs(bj)
        # (cosh, sinh) scaled by e^{-|bj|} stay within [-1, 1]
        coeffs.append(((1.0 + math.exp(-2 * abs(bj))) / 2,
                       math.copysign((1.0 - math.exp(-2 * abs(bj))) / 2, bj)))
    return DecoratedResource(Graph(n + m, edges), ProductState(coeffs),
                             (n + m) / 2.0, log_scale)


def log_partition_function_overlap(model: SpinModel, cap: int = DEFAULT_CAP) -> float:
    """log Z via the overlap identity, one edge qubit at a time.

    Each edge, in canonical order, appends a |+> qubit to the spins, applies
    its two CZs and is contracted at once, so at most n+1 qubits are live;
    ``cap`` still bounds the whole decorated resource, n+m qubits.
    """
    res = decorate(model)
    n = model.graph.n_vertices
    nq = res.decorated_graph.n_vertices
    if nq > cap:
        raise CapacityError(f"decorated resource needs {nq} qubits, cap {cap}")
    state = StateVector.plus_state(n)
    for k, (a, b) in enumerate(model.graph.edges):
        wide = StateVector(n + 1, append_plus(state.amps, 1))
        apply_cz(wide, a, n)
        apply_cz(wide, n, b)
        c0, c1 = res.local_states.coeffs[n + k]
        halves = wide.amps.reshape(-1, 2)
        state = StateVector(n, c0 * halves[:, 0] + c1 * halves[:, 1])
    raw = overlap(state, ProductState(res.local_states.coeffs[:n]))
    mag = abs(raw)
    if mag > 0 and abs(raw.imag) > 1e-9 * mag:
        raise VerificationError(f"overlap has imaginary part {raw.imag:.3e}")
    if raw.real < 0:
        raise VerificationError("overlap is negative; decoration is inconsistent")
    return (res.normalization_log2 * math.log(2.0) + res.coeff_log_scale
            + math.log(max(mag, 5e-324)))


def partition_function_overlap(model: SpinModel, cap: int = DEFAULT_CAP) -> float:
    """Z via the graph-state overlap identity; real within 1e-9 relative."""
    return float(math.exp(log_partition_function_overlap(model, cap)))
