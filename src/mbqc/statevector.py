"""Dense complex statevector backend.

This is the exact oracle every other module is checked against at small
sizes.  Conventions, fixed once for the whole package:

* qubit 0 is the most significant index bit, so basis index
  ``b = z_0 z_1 ... z_{n-1}`` read left to right;
* equatorial measurement at angle ``theta`` uses the basis
  ``|+_theta> = (|0> + e^{i theta}|1>)/sqrt(2)`` (outcome 0) and
  ``|-_theta> = (|0> - e^{i theta}|1>)/sqrt(2)`` (outcome 1);
* Z-plane outcome m projects onto ``|m>``;
* ``measure_angle`` leaves the measured qubit in place until an explicit
  ``compact``; the engine's step projects it out directly (``_project``,
  which works on a stack of states, one per row, as does ``_probability0``).

Default capacity is 22 qubits held at once (for a walk, a pattern's or the
partition overlap's, its peak live qubits); operations beyond a cap fail
fast with CapacityError instead of thrashing memory.
"""
from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ValidationError
from .graphs import Graph
from .pauli import unpack_bits
from .rng import OutcomeSource, as_outcome_source

DEFAULT_CAP = 22
_SQRT_HALF = math.sqrt(0.5)


class StateVector:
    """n-qubit pure state as 2^n complex amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        self.n = int(n)
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValidationError(
                f"amplitude array has shape {amps.shape}, expected {(1 << self.n,)}")
        self.amps = amps

    @classmethod
    def computational(cls, n: int, index: int = 0) -> "StateVector":
        v = np.zeros(1 << n, dtype=np.complex128)
        v[index] = 1.0
        return cls(n, v)

    @classmethod
    def plus_state(cls, n: int) -> "StateVector":
        v = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
        return cls(n, v)

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _bitpos(self, qubit: int) -> int:
        if not (0 <= qubit < self.n):
            raise ValidationError(f"qubit {qubit} out of range")
        return self.n - 1 - qubit

    def _split(self, qubit: int) -> tuple[np.ndarray, np.ndarray, tuple]:
        """View amplitudes as (left, 2, right) blocks around one qubit."""
        p = self._bitpos(qubit)
        shaped = self.amps.reshape(1 << (self.n - 1 - p), 2, 1 << p)
        return shaped[:, 0, :], shaped[:, 1, :], shaped.shape


class StateRows:
    """Rows of n-qubit states, ``rows x 2^n`` amplitudes (a pattern walk's
    level, one row per branch), which ``apply_cz`` takes like a
    ``StateVector`` and applies to every row at once."""

    __slots__ = ("n", "amps")
    _bitpos = StateVector._bitpos

    def __init__(self, n: int, amps: np.ndarray):
        self.n, self.amps = int(n), np.ascontiguousarray(amps)


def graph_state_vector(graph: Graph, cap: int = DEFAULT_CAP) -> StateVector:
    """|G> = prod_edges CZ |+>^n; amplitudes are exactly +/- 2^{-n/2}."""
    n = graph.n_vertices
    if n > cap:
        raise CapacityError(f"{n} qubits exceeds cap {cap}")
    state = StateVector.plus_state(n)
    for a, b in graph.edges:
        apply_cz(state, a, b)
    return state


def apply_cz(state: StateVector, a: int, b: int) -> StateVector:
    """In-place CZ; sign flip where both qubits read 1."""
    if a == b:
        raise ValidationError("CZ targets must differ")
    lo, hi = sorted((state._bitpos(a), state._bitpos(b)))
    blocks = state.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    blocks[:, 1, :, 1, :] *= -1.0
    return state


def apply_local(state: StateVector, u: np.ndarray, qubit: int) -> StateVector:
    """In-place 2x2 unitary on one qubit; validates unitarity to 1e-12."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValidationError("local gate must be a 2x2 matrix")
    if not np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12):
        raise ValidationError("matrix is not unitary within 1e-12")
    a0, a1, _ = state._split(qubit)
    new0 = u[0, 0] * a0 + u[0, 1] * a1
    new1 = u[1, 0] * a0 + u[1, 1] * a1
    a0[:] = new0
    a1[:] = new1
    return state


def apply_pauli(state: StateVector, kind: str, qubit: int) -> StateVector:
    """X/Y/Z without the generic-matrix overhead."""
    a0, a1, _ = state._split(qubit)
    if kind == "X":
        tmp = a0.copy()
        a0[:] = a1
        a1[:] = tmp
    elif kind == "Z":
        a1 *= -1.0
    elif kind == "Y":
        tmp = a0.copy()
        a0[:] = -1j * a1
        a1[:] = 1j * tmp
    else:
        raise ValidationError(f"kind must be X, Y or Z, got {kind!r}")
    return state


def _halves(amps: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of states (``rows x 2^n``) viewed as (rows, left, right) blocks
    with ``qubit`` reading 0 and 1."""
    shaped = amps.reshape(len(amps), 1 << qubit, 2, -1)
    return shaped[:, :, 0], shaped[:, :, 1]


def _contract(amps: np.ndarray, qubit: int, c0: complex, c1: complex) -> np.ndarray:
    """Rows of states (``rows x 2^n``) with ``qubit`` contracted against the
    unconjugated pair (c0, c1): ``c0 a0 + c1 a1``, ``rows x 2^(n-1)``."""
    a0, a1 = _halves(amps, qubit)
    return (c0 * a0 + c1 * a1).reshape(len(amps), -1)


def _probability0(amps: np.ndarray, qubit: int, plane: str, theta) -> np.ndarray:
    """Per row of ``amps`` (``rows x 2^n``), the probability ||c_0||^2 of
    outcome 0 (see ``_project``; ``theta`` has one angle per row), read from
    inner products without forming c_0: ||a0||^2 in the Z plane, else
    ||a||^2 / 2 + Re(e^{-i theta} <a0|a1>)."""
    a0, a1 = _halves(amps, qubit)
    if plane == "Z":
        return np.vecdot(a0, a0).real.sum(axis=1)
    if plane != "XY":
        raise ValidationError(f"plane must be XY or Z, got {plane!r}")
    cross = np.exp(-1j * np.asarray(theta, dtype=float)) * np.vecdot(a0, a1).sum(axis=1)
    return 0.5 * np.vecdot(amps, amps).real + cross.real


def _project(amps: np.ndarray, qubit: int, plane: str, theta, rows, ms
             ) -> tuple[np.ndarray, np.ndarray]:
    """(c, p): row ``rows[k]`` of ``amps`` projected onto outcome ``ms[k]``
    of measuring ``qubit``, unnormalised and flat on the other qubits, as
    row k of c, and p[k] = ||c[k]||^2.  In the XY plane at row angle theta,
    c_m = (a0 +/- e^{-i theta} a1)/sqrt(2); in the Z plane c_m = a_m.  One
    numpy expression serves every row; beside ``amps`` it holds c and at
    most one gathered half of the rows, never a view of ``amps``.
    """
    rows, ms = np.asarray(rows, dtype=np.intp), np.asarray(ms, dtype=np.intp)
    if plane == "Z":
        c = amps.reshape(len(amps), 1 << qubit, 2, -1)[rows, :, ms]
    elif plane == "XY":
        a0, a1 = _halves(amps, qubit)
        coef = (1 - 2 * ms) * np.exp(-1j * np.asarray(theta, dtype=float)[rows])
        if np.array_equal(rows, np.arange(len(amps))):
            rows = slice(None)              # each row once, in order: no gather
        c = np.multiply(a1[rows], coef[:, None, None])
        c += a0[rows]
        c *= _SQRT_HALF
    else:
        raise ValidationError(f"plane must be XY or Z, got {plane!r}")
    c = c.reshape(len(ms), -1)
    return c, np.vecdot(c, c).real


def measure_angle(state: StateVector, qubit: int, plane: str, theta: float,
                  randomness: Union[int, OutcomeSource, None] = None,
                  forced: Optional[int] = None) -> tuple[int, StateVector]:
    """Projective measurement in the XY plane at ``theta`` (or the Z basis).

    Returns (outcome, post-state); the input is untouched and the measured
    qubit remains in place, collapsed onto the observed basis vector.
    Forcing an outcome of probability below ``PROB_TOL`` raises ContradictionError.
    """
    src = as_outcome_source(randomness,
                            forced=None if forced is None else {qubit: forced})
    state._bitpos(qubit)                    # validates the qubit
    amps, theta = state.amps[None], [theta]
    m = src.choose(qubit, float(_probability0(amps, qubit, plane, theta)[0]))
    c, prob = _project(amps, qubit, plane, theta, [0], [m])
    # the measured qubit goes back in place as |m> or |+/-_theta>
    ket = ((1 - m, m) if plane == "Z" else
           (_SQRT_HALF, (-1.0 if m else 1.0) * _SQRT_HALF * cmath.exp(1j * theta[0])))
    c = c.reshape(1 << qubit, -1) / math.sqrt(prob[0])
    return m, StateVector(state.n, np.stack([ket[0] * c, ket[1] * c], axis=1).reshape(-1))


def measure_probability(state: StateVector, qubit: int, plane: str, theta: float,
                        m: int) -> float:
    """Probability of outcome ``m`` without collapsing."""
    state._bitpos(qubit)
    return float(_project(state.amps[None], qubit, plane, [theta], [0], [m])[1][0])


class ProductState:
    """Unnormalized per-qubit coefficient pairs (c0, c1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[tuple[complex, complex]]):
        self.coeffs = [(complex(c0), complex(c1)) for c0, c1 in coeffs]
        for i, (c0, c1) in enumerate(self.coeffs):
            if c0 == 0 and c1 == 0:
                raise ValidationError(f"qubit {i} has both coefficients zero")

    @property
    def n(self) -> int:
        return len(self.coeffs)


def overlap(state: StateVector, product: ProductState) -> complex:
    """Bilinear contraction sum_b (prod_k c_{k, b_k}) amp_b.

    The product coefficients enter **unconjugated** (the bra is built from
    the given numbers as written), so with real coefficients this is the
    plain real pairing used by the partition-function identity.  Cost is
    O(2^n) by contracting one qubit at a time, never forming 2^n x 2^n
    objects.
    """
    if product.n != state.n:
        raise ValidationError("qubit counts differ")
    acc = state.amps[None]
    for c0, c1 in product.coeffs:           # qubit k is the leading one once 0..k-1 are gone
        acc = _contract(acc, 0, c0, c1)
    return complex(acc[0, 0])


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized inputs."""
    if a.n != b.n:
        raise ValidationError("qubit counts differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def apply_pauli_string(state: StateVector, pauli) -> StateVector:
    """New state pauli @ state, for a packed PauliString of matching size."""
    if pauli.n != state.n:
        raise ValidationError("qubit counts differ")
    n = state.n
    xb, zb = unpack_bits(np.stack([pauli.x, pauli.z]), n).astype(np.int64)
    weights = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))  # qubit 0 is the MSB
    xmask, zmask = int(xb @ weights), int(zb @ weights)
    ycount = int(xb @ zb)
    idx = np.arange(state.amps.size, dtype=np.int64)
    phases = 1.0 - 2.0 * (np.bitwise_count(idx & zmask) & 1)
    coeff = pauli.sign * (1j ** (ycount % 4))
    return StateVector(n, (coeff * phases * state.amps)[idx ^ xmask])


def pauli_expectation(state: StateVector, pauli) -> complex:
    """<state| pauli |state>."""
    return complex(np.vdot(state.amps, apply_pauli_string(state, pauli).amps))


def compact(state: StateVector, qubit: int) -> StateVector:
    """Remove a qubit that is in a product state with the rest.

    Picks the dominant local branch deterministically; raises if the qubit
    is still entangled (residual above 1e-9).
    """
    a0, a1, _ = state._split(qubit)
    v0 = a0.reshape(-1)
    v1 = a1.reshape(-1)
    n0 = float(np.linalg.norm(v0))
    n1 = float(np.linalg.norm(v1))
    major, minor, nmaj = (v0, v1, n0) if n0 >= n1 else (v1, v0, n1)
    if nmaj < 1e-12:
        raise ValidationError("qubit amplitudes vanish; state not normalized")
    coef = np.vdot(major, minor) / (nmaj * nmaj)
    residual = float(np.linalg.norm(minor - coef * major))
    if residual > 1e-9:
        raise ValidationError(
            f"qubit {qubit} is still entangled (residual {residual:.2e})")
    return StateVector(state.n - 1, major / nmaj)


def extract_qubits(state: StateVector, keep: Sequence[int]) -> StateVector:
    """State restricted to ``keep`` (reordered as given); the discarded
    qubits must each be in a product state with the rest."""
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValidationError("keep list has duplicates")
    cur = state
    labels = list(range(state.n))
    for q in sorted((set(range(state.n)) - set(keep)), reverse=True):
        cur = compact(cur, labels.index(q))
        labels.remove(q)
    perm = [labels.index(q) for q in keep]
    shaped = cur.amps.reshape([2] * cur.n)
    reordered = np.transpose(shaped, perm).reshape(-1)
    return StateVector(cur.n, reordered)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """a (qubits first) tensored with b."""
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))
