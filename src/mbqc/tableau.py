"""Stabilizer tableau backend: Clifford gates and Pauli-basis measurements.

The tableau keeps ``n`` destabilizer rows (indices ``0..n-1``) and ``n``
stabilizer rows (``n..2n-1``), each a bit-packed Pauli, in one column-major
(``order="F"``) array ``xz`` of shape (2n, 2, w), x words in ``xz[:, 0]``
and z words in ``xz[:, 1]``; ``xs``/``zs`` are views of those halves, never
copies, and whatever creates or copies a tableau keeps both.  Destabilizer
row ``i`` anticommutes with stabilizer row ``i`` only, and rows of one kind
commute; all updates keep this pairing, which makes measurement updates
O(n*w) word operations.  Only stabilizer rows carry a sign: destabilizers
serve through their x/z bits alone, and their signs stay 0.

Every Pauli question starts from one anticommutation column: which of the
2n rows anticommute with the observable (read from the z bits for X, the x
bits for Z), one contiguous run of 4n words for both.  If a stabilizer
row does, a measurement gives a fair random (or forced) outcome and
factors the qubit out: the state is then ``|b> (x) |psi'>`` (Raussendorf,
Browne & Briegel, quant-ph/0301052), so the pivot row becomes the
one-qubit ``+/-B``, its destabilizer a one-qubit Pauli, and every other
row is cleared on that qubit.  The pivot is multiplied into the other
anticommuting rows by ``pauli._mul_rows`` over its word span only (x and
z in one gather and one scatter), with a phase computed for the stabilizer
rows alone; as measured qubits leave no weight behind, destabilizer rows
stay as sparse as the stabilizers.
Otherwise the observable is ``+/-`` a group member, and one membership
routine answers both "what is the deterministic outcome?" and "is ``+/-P``
in the stabilizer group?": the destabilizers that anticommute with P
select the stabilizer rows whose product must equal P, and the product's
sign is the answer.  A deterministic outcome is read this way before any
randomness is consumed.

Output extraction stays packed.  A measured qubit is left in a ``+/-B``
eigenstate and usually keeps that one-qubit stabilizer row; all such rows
on the dropped qubits are pivots of one pass of whole-row masks (clear
their bits, flip signs by a popcount parity).  Only the dropped qubits
without one go through ``_mul_rows`` elimination; destabilizers are then
completed by whole-row XORs.  ``pauli.anticommuting`` is every whole-row
commutation test.  Phases are tracked internally modulo 4 (products of
rows pass through ``+/-i``); every exposed row sign is real.
"""
from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ValidationError, VerificationError, check_memory
from .graphs import Graph
from .pauli import (PauliString, _eliminate, _mul_rows, anticommutation_gram, anticommuting,
                    anticommuting_at, clear_qubit, column, flip_bits, lone_qubits, n_words,
                    pack_bits, phase_exponent_mod4, qubit_columns, set_single, unpack_bits,
                    xor_column)
from .rng import OutcomeSource, as_outcome_source


def _invariant_checks_on() -> bool:
    """Whether ``MBQC_CHECK_INVARIANTS`` (any value but empty or ``0``) asks for
    ``check_invariants`` after every gate and measurement, O(n^2) each, so off
    by default.  A tableau reads it once, when constructed; its copies keep that."""
    return os.environ.get("MBQC_CHECK_INVARIANTS", "0") not in ("", "0")


def check_capacity(n: int) -> None:
    """Refuse a tableau of ``n`` qubits when its packed rows (2n rows of x and
    z words, 4*n*w words) exceed physical memory."""
    check_memory(32 * n * n_words(n), f"a {n}-qubit tableau")


class Tableau:
    """Mutable stabilizer + destabilizer tableau for ``n`` qubits.  ``signs`` has 2n
    entries, the destabilizer half 0; ``checks``: check invariants after each update."""

    __slots__ = ("n", "w", "xz", "xs", "zs", "signs", "checks")

    def __init__(self, n: int):
        self.n = int(n)
        check_capacity(self.n)
        self.w = n_words(self.n)
        self.xz = np.zeros((2 * self.n, 2, self.w), dtype=np.uint64, order="F")
        self.xs, self.zs = self.xz[:, 0], self.xz[:, 1]         # views, never copies
        self.signs = np.zeros(2 * self.n, dtype=np.uint8)
        self.checks = _invariant_checks_on()

    # -- construction -----------------------------------------------------

    @classmethod
    def plus_state(cls, n: int) -> "Tableau":
        """|+...+>: stabilizers X_k, destabilizers Z_k."""
        t = cls(n)
        k = np.arange(n)
        flip_bits(t.zs, k, k)            # destabilizer Z_k
        flip_bits(t.xs, n + k, k)        # stabilizer X_k
        return t

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n, t.w, t.signs, t.checks = self.n, self.w, self.signs.copy(), self.checks
        t.xz = self.xz.copy("F")
        t.xs, t.zs = t.xz[:, 0], t.xz[:, 1]
        return t

    # -- row access -------------------------------------------------------

    def stabilizer_row(self, i: int) -> PauliString:
        return PauliString(self.n, self.xs[self.n + i].copy(), self.zs[self.n + i].copy(),
                           -1 if self.signs[self.n + i] else +1)

    def destabilizer_row(self, i: int) -> PauliString:
        return PauliString(self.n, self.xs[i].copy(), self.zs[i].copy())

    def stabilizer_rows(self) -> list[PauliString]:
        return [self.stabilizer_row(i) for i in range(self.n)]

    def dump(self) -> str:
        """Golden-test text form: one stabilizer row per line."""
        return "\n".join(p.to_text() for p in self.stabilizer_rows())

    # -- Clifford gates -----------------------------------------------------

    def apply_clifford(self, gate: str, targets: Sequence[int]) -> "Tableau":
        """Conjugate every row by the gate; mutates and returns self."""
        targets = [int(q) for q in targets]
        for q in targets:
            if not (0 <= q < self.n):
                raise ValidationError(f"target {q} out of range")
        if len(set(targets)) != len(targets):
            raise ValidationError("targets must be distinct")

        one_qubit = {"H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "CZ": 2, "CNOT": 2}
        if gate not in one_qubit:
            raise ValidationError(f"unsupported gate {gate!r}")
        if len(targets) != one_qubit[gate]:
            raise ValidationError(f"{gate} takes {one_qubit[gate]} target(s)")

        n, a, b = self.n, targets[0], targets[-1]
        xa, za = column(self.xs, a), column(self.zs, a)
        xb, zb = column(self.xs, b), column(self.zs, b)
        if gate in ("H", "S"):
            flip = xa & za
        elif gate == "CNOT":
            flip = xa & zb & ~(xb ^ za)
        elif gate == "CZ":
            flip = xa & xb & (za ^ zb)
        else:                                   # a Pauli: the rows it anticommutes with
            flip = {"X": za, "Y": xa ^ za, "Z": xa}[gate]
        self.signs[n:] ^= flip[n:].astype(np.uint8)     # destabilizers carry no sign
        if gate == "H":
            xor_column(self.xs, a, xa ^ za)
            xor_column(self.zs, a, xa ^ za)
        elif gate == "S":
            xor_column(self.zs, a, xa)
        elif gate == "CNOT":
            xor_column(self.xs, b, xa)
            xor_column(self.zs, a, zb)
        elif gate == "CZ":
            xor_column(self.zs, a, xb)
            xor_column(self.zs, b, xa)
        if self.checks:
            self.check_invariants()
        return self

    # -- measurement --------------------------------------------------------

    def _columns(self, basis: str, qubit: int, first: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``pauli.qubit_columns`` of the rows from ``first`` on (default all
        2n), after checking basis and qubit."""
        if basis not in ("X", "Y", "Z"):
            raise ValidationError(f"basis must be X, Y or Z, got {basis!r}")
        if not (0 <= qubit < self.n):
            raise ValidationError(f"qubit {qubit} out of range")
        return qubit_columns(self.xz[first:], qubit)

    def measure_pauli(self, basis: str, qubit: int,
                      randomness: Union[int, OutcomeSource, None] = None,
                      forced: Optional[int] = None) -> int:
        """Measure B = X/Y/Z on one qubit in place; returns the outcome bit m.

        Deterministic outcomes are detected before any randomness is drawn,
        so a fixed seed yields the same trace whatever the branch structure.
        ``forced`` (or instead a forced entry in an OutcomeSource keyed by
        qubit) pins the outcome of a balanced measurement and raises
        ContradictionError against a conflicting deterministic outcome.

        A random outcome factors the qubit out of the tableau.  The first
        anticommuting stabilizer row p, with Pauli P on the qubit, is
        multiplied into the other anticommuting rows.  Every row but p and
        its destabilizer then holds I or B on the qubit, and it holds B
        exactly if it anticommuted with P there before.  p becomes
        ``(-1)^m B``, its destabilizer the one-qubit C (Z for X, X for Y or
        Z), and each other row holding B is multiplied by p: its bits on the
        qubit are cleared and, if it is a stabilizer row, its sign flips
        when m = 1.  The signed group is the one the textbook update gives;
        only its generators differ, so every later outcome is the same.
        The qubit's x and z word columns are read once, as one contiguous
        run; both anticommutation columns, for B and for P, come from that read.
        """
        cx, cz = self._columns(basis, qubit)
        anti = anticommuting_at(cx, cz, basis)
        src = as_outcome_source(randomness,
                                forced=None if forced is None else {qubit: forced})
        n = self.n
        if not (anti.size and anti[-1] >= n):
            m_det = self._member_sign_bit(anti, PauliString.single(n, qubit, basis))
            if m_det is None:
                raise VerificationError("deterministic-outcome reconstruction failed")
            return src.choose(qubit, 1.0 - m_det)

        p = int(anti[anti.searchsorted(n)])
        m = src.choose(qubit, 0.5)
        held = anticommuting_at(cx, cz, "IXZY"[cx[p] + 2 * cz[p]])
        if anti.size > 1 + (anti[0] == p - n):       # rows besides p and its destabilizer
            _mul_rows(self.xz, self.signs[n:], anti[(anti != p) & (anti != p - n)],
                      self.xz[p], int(self.signs[p]))
        if held.size:                                # row p - n is overwritten below
            clear_qubit(self.xz, held, qubit)        # each holds B on the qubit
            if m:
                self.signs[held[held.searchsorted(n):]] ^= np.uint8(1)
        set_single(self.xz, p - n, qubit, "Z" if basis == "X" else "X")
        set_single(self.xz, p, qubit, basis)
        self.signs[p] = m
        if self.checks:
            self.check_invariants()
        return m

    def outcome_is_random(self, basis: str, qubit: int) -> bool:
        """True when measuring the observable would give a fair coin."""
        return anticommuting_at(*self._columns(basis, qubit, self.n), basis).size > 0

    def _stab_row_product(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Product of the selected stabilizer rows (they all commute).

        Folds the back half of the rows onto the front half until one is
        left, so the phase bookkeeping stays word-parallel and row-parallel
        (the order of commuting factors does not change the product);
        returns (x, z, i-exponent mod 4).
        """
        if sel.size == 0:
            return np.zeros(self.w, dtype=np.uint64), np.zeros(self.w, dtype=np.uint64), 0
        idx = self.n + sel
        xz, ph = self.xz[idx], 2 * self.signs[idx].astype(np.int64)
        while len(xz) > 1:
            k = (len(xz) + 1) // 2
            m = len(xz) - k
            ph[:m] += ph[k:] + phase_exponent_mod4(xz[:m, 0], xz[:m, 1], xz[k:, 0], xz[k:, 1])
            xz[:m] ^= xz[k:]
            xz, ph = xz[:k], ph[:k]
        return xz[0, 0], xz[0, 1], int(ph[0]) % 4

    def _member_sign_bit(self, anti: np.ndarray, p: PauliString) -> Optional[int]:
        """Bit s with ``(-1)^s`` times p's unsigned operator in the group, or None.

        ``anti`` holds the rows that anticommute with p, ascending.  A
        member commutes with every stabilizer row and is the product of the
        rows whose paired destabilizers anticommute with it; that product is
        compared bit for bit.
        """
        if anti.size and anti[-1] >= self.n:
            return None
        acc_x, acc_z, phase = self._stab_row_product(anti)
        if not (np.array_equal(acc_x, p.x) and np.array_equal(acc_z, p.z)):
            return None
        if phase % 2:
            raise VerificationError("group member with imaginary phase")
        return phase // 2

    # -- group queries ------------------------------------------------------

    def stabilizer_group_contains(self, p: PauliString) -> Optional[int]:
        """Membership of ``+/-p`` in the stabilizer group.

        Returns the sign ``s`` such that ``s*p`` is a group member, or None.
        Decided by the destabilizer pairing, as for a deterministic
        measurement outcome.
        """
        if p.n != self.n:
            raise ValidationError("qubit counts differ")
        s = self._member_sign_bit(np.flatnonzero(anticommuting(self.xs, self.zs, p.x, p.z)), p)
        if s is None:
            return None
        return -1 if s ^ p.sign_bit else +1

    def check_invariants(self) -> None:
        """Assert the tableau's structure (debug aid): no destabilizer has a
        sign, stabilizer rows commute pairwise, so do destabilizer rows, and
        destabilizer ``i`` anticommutes with stabilizer ``j`` iff ``i == j``,
        which makes the stabilizer rows independent.  One Gram matrix of
        anticommutation over all 2n rows (``anticommutation_gram``) decides
        all three; the first row ``i`` with a fault is reported.
        """
        n, gram = self.n, anticommutation_gram(self.xs, self.zs)
        gram[n:, :n] ^= np.eye(n, dtype=bool)
        faults = [(self.signs[:n, None] != 0, "destabilizer row {i} has a sign"),
                  (gram[n:, n:], "stabilizer rows {i},{j} anticommute"),
                  (gram[n:, :n], "destabilizer pairing broken at ({i},{j})"),
                  (gram[:n, :n], "destabilizer rows {i},{j} anticommute")]
        rows = [(int(np.argmax(bad.any(axis=1))), k) for k, (bad, _) in enumerate(faults)
                if bad.any()]
        if rows:
            i, k = min(rows)
            bad, message = faults[k]
            raise VerificationError(message.format(i=i, j=int(np.argmax(bad[i]))))


def graph_state_tableau(graph: Graph) -> Tableau:
    """Tableau of |G>: stabilizer row j is X_j Z_{N(j)}, destabilizer Z_j."""
    n = graph.n_vertices
    t = Tableau.plus_state(n)
    a, b = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
    flip_bits(t.zs, np.concatenate([n + a, n + b]), np.concatenate([b, a]))
    return t


def tableau_to_statevector(t: Tableau, cap: int = 14):
    """Dense unit vector stabilized by all rows (global phase arbitrary).

    Finds one basis state of nonzero amplitude by Z-measuring a scratch
    copy, then applies the stabilizer projectors (I+S)/2 and normalizes.
    """
    from .statevector import StateVector, apply_pauli_string

    if t.n > cap:
        raise CapacityError(f"{t.n} qubits exceeds statevector cap {cap}")
    n = t.n
    scratch = t.copy()
    src = OutcomeSource.from_seed(0)
    support = 0
    for q in range(n):
        m = scratch.measure_pauli("Z", q, src)
        support |= m << (n - 1 - q)

    state = StateVector.computational(n, support)
    for row in t.stabilizer_rows():
        state = StateVector(n, (state.amps + apply_pauli_string(state, row).amps) / 2.0)
    norm = state.norm()
    if norm < 1e-9:
        raise VerificationError("projector product vanished; tableau inconsistent")
    return StateVector(n, state.amps / norm)


def _one_qubit_pivots(xs: np.ndarray, zs: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Rows that are a single Pauli on a dropped qubit, at most one per qubit."""
    rows, qubits = lone_qubits(xs | zs)
    on_dropped = dropped[qubits]
    _, first = np.unique(qubits[on_dropped], return_index=True)
    return rows[on_dropped][first]


def extract_subtableau(t: Tableau, keep: Sequence[int]) -> Tableau:
    """Tableau of the state restricted to ``keep`` (in the given order).

    Requires the state to be a product across the cut (true after the
    discarded qubits have been measured).  Every one-qubit stabilizer row
    ``+/-B_q`` on a discarded qubit q is q's pivot, all applied in one
    packed pass: any other row holds I or ``B_q`` on q (else it raises),
    so the pass clears those bits and flips each row's sign by the parity
    of its minus-signed pivot qubits.  The discarded qubits with no such
    row go through ``pauli._eliminate`` (ascending, x column before z).
    The rows left, the generators on ``keep``, go into the new tableau,
    whose destabilizers are completed on packed rows.  Which generators
    are chosen is not part of the contract; the group they generate is.
    """
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValidationError("keep list has duplicates")
    for q in keep:
        if not (0 <= q < t.n):
            raise ValidationError(f"qubit {q} out of range")
    dropped = np.ones(t.n, dtype=bool)
    dropped[keep] = False

    xz, signs = t.xz[t.n:], t.signs[t.n:]
    piv = _one_qubit_pivots(xz[:, 0], xz[:, 1], dropped)
    neg = piv[signs[piv] != 0]
    pxz = np.bitwise_or.reduce(xz[piv])                 # the pivots' x and z words
    on_q, q_neg = pxz[0] | pxz[1], np.bitwise_or.reduce(xz[neg], axis=(0, 1))
    rest = np.ones(t.n, dtype=bool)
    rest[piv] = False
    xz, signs = xz[rest], signs[rest]
    touch = (xz[:, 0] | xz[:, 1]) & on_q
    if np.any((xz & on_q) ^ (touch[:, None] & pxz)):
        raise VerificationError("a stabilizer row holds another Pauli on a measured qubit")
    signs ^= (np.bitwise_count(touch & q_neg).sum(axis=1) & 1).astype(np.uint8)
    xz &= ~on_q
    kept = ~_eliminate(xz, signs, np.flatnonzero(dropped & (unpack_bits(on_q, t.n) == 0)))
    xz, signs = xz[kept], signs[kept]
    if np.any(xz & pack_bits(dropped)):
        raise VerificationError("state is not a product across the requested cut")
    nk = len(keep)
    if len(signs) != nk:
        raise VerificationError(
            f"expected {nk} generators on the kept qubits, found {len(signs)}")

    out = Tableau(nk)
    out.xz[nk:] = pack_bits(unpack_bits(xz, t.n)[..., keep])
    out.signs[nk:] = signs
    out.xz[:nk] = _complete_destabilizers(out.xz[nk:])
    return out


def _complete_destabilizers(s: np.ndarray) -> np.ndarray:
    """Packed, sign-free stacked rows d_i that anticommute with row s_i of ``s`` only.

    Gauss-Jordan on [M | I] with M = [s.z | s.x], one whole-row XOR per pivot,
    solves M d_i = e_i; then each s_i is XORed into the later d_j that
    anticommute with d_i, which changes no other commutation (s_i commutes
    with every d_j, j != i).
    """
    n = len(s)
    aug = np.concatenate([s[:, ::-1], pack_bits(np.eye(n, dtype=np.uint8))[:, None]], axis=1)
    pivots = []
    for c in range(2 * n):
        r = len(pivots)
        has = column(aug[:, c // n], c % n) != 0
        below = np.flatnonzero(has[r:])
        if below.size == 0:
            continue
        p = r + below[0]
        aug[[r, p]], has[[r, p]] = aug[[p, r]], has[[p, r]]
        has[r] = False
        aug[has] ^= aug[r]
        pivots.append(c)
    if len(pivots) < n:
        raise VerificationError("stabilizer generators are not independent")

    d = np.zeros((n, 2 * n), dtype=np.uint8)
    d[:, pivots] = unpack_bits(aug[:, 2], n).T      # row i solves M d = e_i
    d = pack_bits(d.reshape(n, 2, n))
    for i in range(n - 1):
        later = d[i + 1:]
        later[anticommuting(later[:, 0], later[:, 1], d[i, 0], d[i, 1])] ^= s[i]
    return d
