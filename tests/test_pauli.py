from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbqc
from conftest import mul_rows_full_width
from mbqc.errors import ValidationError, VerificationError
from mbqc.pauli import (PauliString, _mul_rows, lone_qubits, n_words, pack_bits,
                        phase_exponent_mod4, symplectic_rank, unpack_bits)
from mbqc.statevector import StateVector, apply_pauli_string

_SINGLE = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
           "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.array([[1, 0], [0, -1]])}


def dense(p: PauliString) -> np.ndarray:
    m = np.array([[p.sign]])
    for k in range(p.n):
        m = np.kron(m, _SINGLE[p.qubit(k)])
    return m


def test_text_round_trip():
    for text in ("+XZZI", "-IYXZ", "+I", "-Y"):
        assert PauliString.from_text(text).to_text() == text


def test_bad_text():
    with pytest.raises(ValidationError):
        PauliString.from_text("+XQ")


def test_single_factory():
    p = PauliString.single(3, 1, "Y", -1)
    assert p.to_text() == "-IYI"


pauli_texts = st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=8).map("".join)


@given(pauli_texts, pauli_texts)
@settings(max_examples=80, deadline=None)
def test_commutation_matches_dense(a, b):
    if len(a) != len(b):
        b = (b * len(a))[:len(a)]
    pa, pb = PauliString.from_text("+" + a), PauliString.from_text("+" + b)
    da, db = dense(pa), dense(pb)
    commutes = np.allclose(da @ db, db @ da)
    assert pa.commutes_with(pb) == commutes


@given(pauli_texts, pauli_texts, st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_product_matches_dense_when_real(a, b, sa, sb):
    if len(a) != len(b):
        b = (b * len(a))[:len(a)]
    pa = PauliString.from_text(("-" if sa else "+") + a)
    pb = PauliString.from_text(("-" if sb else "+") + b)
    if not pa.commutes_with(pb):
        return          # anticommuting product has an imaginary sign
    prod = pa * pb
    assert np.allclose(dense(prod), dense(pa) @ dense(pb))


def test_anticommuting_product_raises():
    with pytest.raises(VerificationError):
        PauliString.from_text("+X") * PauliString.from_text("+Z")


def test_symplectic_rank():
    ops = [PauliString.from_text(t) for t in ("+XI", "+IX", "+XX")]
    assert symplectic_rank(ops) == 2
    ops = [PauliString.from_text(t) for t in ("+XZ", "+ZX")]
    assert symplectic_rank(ops) == 2
    assert symplectic_rank([]) == 0


def _int_rank(rows):
    """GF(2) rank of rows given as Python integers."""
    basis = []                  # distinct leading bits, highest first
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    return len(basis)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_symplectic_rank_matches_integer_rank(n):
    rng = np.random.default_rng(n)
    for k in (1, 5, n + 7):         # n + 7 independent rows: the x half alone falls short
        bits = rng.integers(0, 2, size=(k, 2 * n))
        # dependent rows: XORs of random subsets of the independent draws
        mix = rng.integers(0, 2, size=(k, k)) @ bits % 2
        bits = rng.permutation(np.concatenate([bits, mix]))
        ops = [PauliString.from_bits(b[:n], b[n:]) for b in bits]
        ints = [int("".join(map(str, b)), 2) for b in bits]
        assert symplectic_rank(ops) == _int_rank(ints)


def test_only_pauli_touches_the_packed_layout():
    src = Path(mbqc.__file__).parent
    uses = [f"{path.name}: {token}" for path in sorted(src.glob("*.py"))
            if path.name != "pauli.py"
            for token in (">> 6", "& 63", "WORD_BITS") if token in path.read_text()]
    assert not uses


def test_identity_and_equality():
    p = PauliString.from_text("+II")
    assert p.is_identity()
    assert PauliString.from_text("+XY") == PauliString.from_text("+XY")
    assert PauliString.from_text("+XY") != PauliString.from_text("-XY")


def test_wide_strings_cross_word_boundary():
    text = "I" * 70 + "X" + "I" * 9
    p = PauliString.from_text("+" + text)
    assert p.qubit(70) == "X" and p.qubit(0) == "I"
    assert p.to_text() == "+" + text


def _pack_per_bit(bits, n):
    """The packed layout written out one bit at a time: qubit k in word
    k // 64, bit k % 64."""
    words = np.zeros(n_words(n), dtype=np.uint64)
    for k, b in enumerate(bits):
        if b:
            words[k // 64] |= np.uint64(1) << np.uint64(k % 64)
    return words


@given(st.sampled_from([1, 63, 64, 65, 130]), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_pack_round_trip_matches_per_bit_layout(n, n_rows, data):
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                       min_size=n_rows, max_size=n_rows)), dtype=np.uint8)
    packed = pack_bits(rows)
    assert packed.dtype == np.uint64 and packed.shape == (n_rows, n_words(n))
    for row, words in zip(rows, packed):
        assert np.array_equal(words, _pack_per_bit(row, n))
        assert np.array_equal(pack_bits(row), words)             # 1-D input
        assert np.array_equal(unpack_bits(words, n), row)
    assert np.array_equal(unpack_bits(packed, n), rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_lone_qubits_matches_per_bit_count(n):
    rng = np.random.default_rng(n)
    bits = (rng.random((40, n)) < 1.5 / n).astype(np.uint8)
    bits[:20] = 0
    bits[np.arange(20), rng.integers(0, n, size=20)] = 1     # single bits in any word
    rows, qubits = lone_qubits(pack_bits(bits))
    want = [i for i, row in enumerate(bits) if row.sum() == 1]
    assert rows.tolist() == want
    assert qubits.tolist() == [int(np.flatnonzero(bits[i])[0]) for i in want]


def test_from_support_cancels_a_qubit_listed_twice():
    p = PauliString.from_support(4, x_on=[0, 2, 2, 3, 3, 3], z_on=[1, 1, 3], sign=-1)
    assert p.to_text() == "-XIIY"
    with pytest.raises(ValidationError):
        PauliString.from_support(4, x_on=[4])


@given(pauli_texts, st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_pauli_string_matches_dense_kronecker(text, negative, seed):
    rng = np.random.default_rng(seed)
    n = len(text)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    p = PauliString.from_text(("-" if negative else "+") + text)
    got = apply_pauli_string(StateVector(n, amps), p).amps
    assert np.allclose(got, dense(p) @ amps)


# i-exponent of P1*P2 relative to the encoded product, one qubit: XY = iZ, YX = -iZ, ...
_PRODUCT_EXPONENT = {("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1,
                     ("Y", "X"): 3, ("Z", "Y"): 3, ("X", "Z"): 3}


def _pack_letters(letters):
    letters = np.asarray(letters)
    return pack_bits(np.isin(letters, ["X", "Y"])), pack_bits(np.isin(letters, ["Z", "Y"]))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_phase_exponent_matches_single_qubit_table(n):
    rng = np.random.default_rng(n)
    a = rng.choice(list("IXYZ"), size=(40, n))
    b = rng.choice(list("IXYZ"), size=(40, n))
    want = [sum(_PRODUCT_EXPONENT.get(pq, 0) for pq in zip(ra, rb)) % 4
            for ra, rb in zip(a, b)]
    (x1, z1), (x2, z2) = _pack_letters(a), _pack_letters(b)
    assert phase_exponent_mod4(x1, z1, x2, z2).tolist() == want
    # a single left factor broadcasts against the stack, as in row products
    assert phase_exponent_mod4(x1[0], z1[0], x2, z2).tolist() == [
        sum(_PRODUCT_EXPONENT.get(pq, 0) for pq in zip(a[0], rb)) % 4 for rb in b]


def _rows_and_pivot(n, lo, hi, rng, commuting=True):
    """Random packed rows and a pivot supported on qubits lo..hi-1 (both
    ends set); keeps the rows that commute (or anticommute) with the pivot."""
    letters = rng.choice(list("IXYZ"), size=(60, n))
    pivot = np.full(n, "I")
    pivot[lo:hi] = rng.choice(list("IXYZ"), size=hi - lo)
    pivot[[lo, hi - 1]] = rng.choice(list("XYZ"), size=2)
    xs, zs = _pack_letters(letters)
    px, pz = _pack_letters(pivot)
    anti = np.bitwise_count((xs & pz) ^ (zs & px)).sum(axis=1) % 2
    rows = np.flatnonzero(anti == (0 if commuting else 1))
    return xs, zs, rng.integers(0, 2, size=60).astype(np.uint8), rows, px, pz


@pytest.mark.parametrize("n,lo,hi", [(130, 0, 5),        # first word
                                     (130, 128, 130),    # last, partial word
                                     (130, 60, 70),      # across a word boundary
                                     (65, 0, 65),        # every word
                                     (200, 60, 140)])    # across two word boundaries
@pytest.mark.parametrize("with_signs", [True, False, "mixed"])
def test_mul_rows_matches_full_width_reference(n, lo, hi, with_signs):
    """Signs for every row, for none (None), or ("mixed") for rows 25.. only,
    as a tableau signs its stabilizer half and not its destabilizers."""
    rng = np.random.default_rng([n, lo, hi])
    xs, zs, signs, rows, px, pz = _rows_and_pivot(n, lo, hi, rng)
    first = {True: 0, False: len(xs), "mixed": 25}[with_signs]     # first signed row
    assert rows[0] < first <= rows[-1] or with_signs != "mixed"
    before = signs.copy()
    want = xs.copy(), zs.copy(), signs.copy()
    mul_rows_full_width(*want, rows, px, pz, 1)
    _mul_rows(xs, zs, None if with_signs is False else signs[first:], rows, px, pz, 1)
    assert np.array_equal(xs, want[0]) and np.array_equal(zs, want[1])
    assert np.array_equal(signs[:first], before[:first])
    assert np.array_equal(signs[first:], want[2][first:])


def test_mul_rows_rejects_an_imaginary_product():
    xs, zs, signs, rows, px, pz = _rows_and_pivot(70, 60, 70, np.random.default_rng(0),
                                                  commuting=False)
    assert rows.size
    with pytest.raises(VerificationError, match="imaginary"):
        _mul_rows(xs, zs, signs, rows, px, pz, 0)
