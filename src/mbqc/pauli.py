"""Bit-packed Pauli strings.

Qubit ``k`` of a string acts as I/X/Z/Y for (x,z) bit pairs
(0,0)/(1,0)/(0,1)/(1,1); the operator encoded by a row is
``sign * prod_k i^{x_k z_k} X^{x_k} Z^{z_k}``, which makes (1,1) exactly Y.
Only real signs (+1/-1) are exposed; products that would leave a stray
``i`` are rejected, since they never arise for the Hermitian operators
handled here.

Bits are packed 64 per machine word, so row products and commutation
checks are word-wise XOR/AND plus a popcount.  Rows multiplied in place are
stacked, ``xz[r, 0]`` row r's x words and ``xz[r, 1]`` its z words, and every
sign-tracked product is one kernel, ``_mul_rows``: one gather, XOR and scatter
of the pivot's word span, phase from ``phase_exponent_mod4``, called by
measurement and by the GF(2) eliminator ``_eliminate``.  Every whole-row
commutation test is ``anticommuting`` (one popcount per row), or
``anticommutation_gram`` for every pair of rows at once.  A one-qubit question
(which rows anticommute with X, Y or Z on qubit q) is ``anticommuting_at`` on
``qubit_columns``: one contiguous read of q's x and z word columns.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, VerificationError

WORD_BITS = 64


def n_words(n_qubits: int) -> int:
    return max(1, (n_qubits + WORD_BITS - 1) // WORD_BITS)


def pack_bits(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Pack 0/1 bits along the last axis into uint64 words.

    Qubit k goes to word k // 64, bit k % 64; the words of a row are
    little-endian, so the row is ``np.packbits(..., bitorder="little")``
    read as ``<u8``.  Any stack of rows packs at once.
    """
    bits = np.asarray(bits) != 0
    n = bits.shape[-1]
    packed = np.packbits(bits, axis=-1, bitorder="little")
    octets = np.zeros(bits.shape[:-1] + (8 * n_words(n),), dtype=np.uint8)
    octets[..., :packed.shape[-1]] = packed
    return octets.view("<u8").astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, n_qubits: int) -> np.ndarray:
    """Inverse of ``pack_bits``: uint8 0/1 bits of the first ``n_qubits``
    qubits, along the last axis of any stack of packed rows."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n_qubits, bitorder="little")


def flip_bits(words: np.ndarray, rows, qubits) -> None:
    """XOR bit ``qubits[i]`` of packed row ``rows[i]`` in place, for every i.

    Repeated (row, qubit) entries cancel in pairs.
    """
    qubits = np.asarray(qubits, dtype=np.int64)
    masks = np.left_shift(np.uint64(1), (qubits & 63).astype(np.uint64))
    np.bitwise_xor.at(words, (rows, qubits >> 6), masks)


def column(words: np.ndarray, q: int) -> np.ndarray:
    """Bit ``q`` of every packed row, as uint64 0/1."""
    return (words[:, q >> 6] >> np.uint64(q & 63)) & np.uint64(1)


def xor_column(words: np.ndarray, q: int, bits: np.ndarray) -> None:
    """XOR uint64 0/1 ``bits`` (one per row) into bit ``q`` of every packed row."""
    words[:, q >> 6] ^= bits << np.uint64(q & 63)


def qubit_columns(xz: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit ``q`` of the x and of the z words of every stacked row, as bool:
    one read of q's word column, for ``anticommuting_at``."""
    bits = (xz[:, :, q >> 6] & np.uint64(1 << (q & 63))) != 0
    return bits[:, 0], bits[:, 1]


def anticommuting_at(cx: np.ndarray, cz: np.ndarray, kind: str) -> np.ndarray:
    """Ascending indices of the rows that anticommute with the one-qubit
    Pauli ``kind`` (X, Y or Z) on the qubit whose ``qubit_columns`` are
    (cx, cz): the rows with a z bit for X, an x bit for Z, one of them for Y."""
    return (cz if kind == "X" else cx if kind == "Z" else cx ^ cz).nonzero()[0]


def clear_qubit(xz: np.ndarray, rows: np.ndarray, q: int) -> None:
    """Clear bit ``q`` of the x and z words of stacked ``rows`` (distinct)."""
    col = xz[:, :, q >> 6]
    col[rows] &= ~np.uint64(1 << (q & 63))


def set_single(xz: np.ndarray, row: int, q: int, kind: str) -> None:
    """Overwrite stacked row ``row`` with the one-qubit Pauli ``kind`` on ``q``."""
    xz[row] = 0
    if kind != "Z":
        xz[row, 0, q >> 6] = 1 << (q & 63)
    if kind != "X":
        xz[row, 1, q >> 6] = 1 << (q & 63)


def lone_qubits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The packed rows with exactly one bit set, and the qubit of that bit."""
    rows = np.flatnonzero(np.bitwise_count(words).sum(axis=-1) == 1)
    word = np.argmax(words[rows] != 0, axis=-1)
    return rows, WORD_BITS * word + np.bitwise_count(words[rows, word] - np.uint64(1))


def anticommuting(xs: np.ndarray, zs: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Which packed rows (xs, zs) anticommute with the packed Pauli (x, z), one
    bool per row: the parity of popcount((xs & z) ^ (zs & x)) along the last axis."""
    return (np.bitwise_count((xs & z) ^ (zs & x)).sum(axis=-1) & 1).astype(bool)


def anticommutation_gram(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Bool Gram matrix g[i, j]: packed rows i and j anticommute.  For a block
    of rows against all rows, the words of (x_i & z_j) ^ (z_i & x_j) are
    XORed together one word column at a time into one word per pair, whose
    popcount parity is the entry; a block holds about 2^20 words (8 MB)."""
    rows, w = xs.shape
    xt, zt = np.ascontiguousarray(xs.T), np.ascontiguousarray(zs.T)
    gram = np.empty((rows, rows), dtype=bool)
    step = max(1, (1 << 20) // max(1, rows))
    for a in range(0, rows, step):
        acc = np.zeros((len(xs[a:a + step]), rows), dtype=np.uint64)
        tmp = np.empty_like(acc)
        for k in range(w):
            acc ^= np.bitwise_and(xs[a:a + step, k, None], zt[k], out=tmp)
            acc ^= np.bitwise_and(zs[a:a + step, k, None], xt[k], out=tmp)
        gram[a:a + step] = np.bitwise_count(acc) & 1
    return gram


def phase_exponent_mod4(x1: np.ndarray, z1: np.ndarray,
                        x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """i-exponent (mod 4) of the qubit-wise product P1*P2, word-parallel.

    A qubit contributes +i or -i exactly where the factors anticommute
    (``a``); it is -i where ``x1^x2^z1^z2^(x1&z2)`` is also set, so the
    exponent is popcount(a) + 2*popcount(a & that) mod 4.  The packed words
    lie along the last axis, which is reduced: stacked rows (broadcasting as
    numpy does) give one exponent per row, and single rows a 0-d integer array.
    """
    t = x1 & z2
    a = z1 & x2
    a ^= t                  # in place, here and below: row stacks can be large
    minus = x1 ^ z1 ^ x2
    minus ^= z2
    minus ^= t
    minus &= a
    cnt = np.bitwise_count(a).sum(axis=-1, dtype=np.int64)
    cnt += 2 * np.bitwise_count(minus).sum(axis=-1, dtype=np.int64)
    return cnt % 4


def _mul_rows(xz: np.ndarray, signs: np.ndarray | None, rows: np.ndarray,
              p: np.ndarray, psign: int) -> None:
    """Left-multiply stacked Pauli ``p``, sign bit ``psign``, into ``xz[rows]``.

    Only the word span from the first to the last nonzero word of ``p``
    changes, so only that span is gathered, XORed and scattered, x and z
    together.  ``signs`` (None for none) holds the sign bits of the last
    ``len(signs)`` rows; only those rows get a phase, so unsigned rows (a
    tableau's destabilizers, whose signs nothing reads) cost just the XOR.
    An imaginary signed product raises before any row changes.  ``rows`` is
    ascending and omits the row ``p`` views.
    """
    if rows.size == 0:
        return
    nz = (p[0] | p[1]).nonzero()[0]
    span = slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)
    p, sub = p[:, span], xz[:, :, span]
    words = sub[rows]
    if signs is not None:
        off = len(xz) - len(signs)
        k = int(rows.searchsorted(off))
        e = phase_exponent_mod4(p[0], p[1], words[k:, 0], words[k:, 1])
        if np.bitwise_or.reduce(e) & 1:                 # some exponent is odd
            raise VerificationError("product has imaginary sign")
        signs[rows[k:] - off] ^= ((e >> 1) ^ psign).astype(np.uint8)
    words ^= p                                          # in place: no second row stack
    sub[rows] = words


class PauliString:
    """An n-qubit Pauli with a +/-1 sign, stored as packed x/z bit rows."""

    __slots__ = ("n", "x", "z", "sign_bit")

    def __init__(self, n: int, x: np.ndarray | None = None, z: np.ndarray | None = None,
                 sign: int = +1):
        self.n = int(n)
        w = n_words(self.n)
        self.x = np.zeros(w, dtype=np.uint64) if x is None else x.astype(np.uint64)
        self.z = np.zeros(w, dtype=np.uint64) if z is None else z.astype(np.uint64)
        if sign not in (+1, -1):
            raise ValidationError("sign must be +1 or -1")
        self.sign_bit = 0 if sign == +1 else 1

    @property
    def sign(self) -> int:
        return -1 if self.sign_bit else +1

    @classmethod
    def from_bits(cls, x_bits: Iterable[int], z_bits: Iterable[int], sign: int = +1
                  ) -> "PauliString":
        xb, zb = list(x_bits), list(z_bits)
        if len(xb) != len(zb):
            raise ValidationError("x and z bit vectors must have equal length")
        return cls(len(xb), pack_bits(xb), pack_bits(zb), sign)

    @classmethod
    def from_support(cls, n: int, x_on: Iterable[int] = (), z_on: Iterable[int] = (),
                     sign: int = +1) -> "PauliString":
        """X on ``x_on`` and Z on ``z_on`` (Y where both); a qubit listed
        twice in one of them cancels."""
        x_on, z_on = list(x_on), list(z_on)
        if not all(0 <= q < n for q in x_on + z_on):
            raise ValidationError(f"support out of range for {n} qubits")
        words = np.zeros((2, n_words(n)), dtype=np.uint64)
        flip_bits(words, [0] * len(x_on) + [1] * len(z_on), x_on + z_on)
        return cls(n, words[0], words[1], sign)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the text form, e.g. ``+XZZI`` or ``-IYXZ``."""
        text = text.strip()
        sign = -1 if text.startswith("-") else +1
        text = text[1:] if text.startswith(("+", "-")) else text
        for ch in text:
            if ch not in "IXYZ":
                raise ValidationError(f"bad Pauli character {ch!r}")
        return cls.from_bits([ch in "XY" for ch in text], [ch in "ZY" for ch in text], sign)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str, sign: int = +1) -> "PauliString":
        if not (0 <= qubit < n):
            raise ValidationError(f"qubit {qubit} out of range")
        if kind not in ("X", "Y", "Z"):
            raise ValidationError(f"kind must be X, Y or Z, got {kind!r}")
        return cls.from_support(n, [qubit] * (kind != "Z"), [qubit] * (kind != "X"), sign)

    def qubit(self, k: int) -> str:
        xb = (int(self.x[k >> 6]) >> (k & 63)) & 1
        zb = (int(self.z[k >> 6]) >> (k & 63)) & 1
        return "IXZY"[xb + 2 * zb]

    def to_text(self) -> str:
        return ("-" if self.sign_bit else "+") + "".join(self.qubit(k) for k in range(self.n))

    def copy(self) -> "PauliString":
        return PauliString(self.n, self.x.copy(), self.z.copy(), self.sign)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValidationError("qubit counts differ")
        return not anticommuting(self.x, self.z, other.x, other.z)

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product self * other; raises if the result is not real."""
        if self.n != other.n:
            raise ValidationError("qubit counts differ")
        phase = (2 * (self.sign_bit + other.sign_bit)
                 + int(phase_exponent_mod4(self.x, self.z, other.x, other.z))) % 4
        if phase % 2:
            raise VerificationError("product has imaginary sign")
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z,
                           +1 if phase == 0 else -1)

    def is_identity(self) -> bool:
        return not self.x.any() and not self.z.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n == other.n and self.sign_bit == other.sign_bit
                and bool(np.array_equal(self.x, other.x))
                and bool(np.array_equal(self.z, other.z)))

    def __hash__(self):
        return hash((self.n, self.sign_bit, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self):
        return f"PauliString({self.to_text()!r})"


def _eliminate(xz: np.ndarray, signs: np.ndarray | None, qubits: Iterable[int]) -> np.ndarray:
    """Gaussian elimination of the x, then the z, column of each of ``qubits``.

    Works in place on stacked rows ``xz`` and their sign bits ``signs``
    (None to ignore signs).  For each column, the first row not yet a pivot
    that has the bit becomes the pivot and is left-multiplied into every
    other non-pivot row with the bit, all at once.  Returns the mask of
    pivot rows; the other rows end up free of ``qubits``.
    """
    used = np.zeros(len(xz), dtype=bool)
    for q in qubits:
        for half in (0, 1):
            rows = np.flatnonzero((column(xz[:, half], q) != 0) & ~used)
            if rows.size == 0:
                continue
            p, rows = rows[0], rows[1:]
            used[p] = True
            _mul_rows(xz, signs, rows, xz[p], 0 if signs is None else int(signs[p]))
    return used


def symplectic_rank(paulis: Sequence[PauliString]) -> int:
    """Rank over GF(2) of the (x|z) rows, ignoring signs."""
    xz = np.array([(p.x, p.z) for p in paulis], dtype=np.uint64)
    return int(_eliminate(xz, None, range(paulis[0].n if paulis else 0)).sum())
