import re

import numpy as np
import pytest

from conftest import mul_rows_full_width, random_graph
from mbqc.engine import MeasurementCommand, MeasurementPattern, run_pattern
from mbqc.errors import ContradictionError, ValidationError, VerificationError
from mbqc.graphs import Graph
from mbqc.pauli import PauliString, anticommuting, pack_bits, unpack_bits
from mbqc.rng import PROB_TOL, OutcomeSource, make_rng
from mbqc.statevector import (StateVector, fidelity_up_to_phase, graph_state_vector,
                              measure_angle, measure_probability)
from mbqc.tableau import (Tableau, _one_qubit_pivots, extract_subtableau,
                          graph_state_tableau, tableau_to_statevector)

BASIS_TO_ANGLE = {"X": ("XY", 0.0), "Y": ("XY", np.pi / 2), "Z": ("Z", 0.0)}


def test_single_vertex_graph_state():
    t = graph_state_tableau(Graph(1, []))
    assert t.dump() == "+X"


def test_star_graph_correlation_operator():
    t = graph_state_tableau(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert t.stabilizer_row(0).to_text() == "+XZZZ"


def test_chain_middle_correlation_operator():
    t = graph_state_tableau(Graph(3, [(0, 1), (1, 2)]))
    assert t.stabilizer_row(1).to_text() == "+ZXZ"


def test_h_conjugation():
    t = Tableau.plus_state(1)
    t.apply_clifford("H", [0])
    assert t.dump() == "+Z"


def test_z_flips_x_sign():
    t = Tableau.plus_state(1)
    t.apply_clifford("Z", [0])
    assert t.dump() == "-X"


def test_cz_creates_graph_state_stabilizers():
    t = Tableau.plus_state(2)
    t.apply_clifford("CZ", [0, 1])
    assert t.dump() == "+XZ\n+ZX"


def test_clifford_validation():
    t = Tableau.plus_state(2)
    with pytest.raises(ValidationError):
        t.apply_clifford("CZ", [0, 0])
    with pytest.raises(ValidationError):
        t.apply_clifford("H", [5])
    with pytest.raises(ValidationError):
        t.apply_clifford("T", [0])


@pytest.mark.parametrize("gate", ["H", "S", "X", "Y", "Z"])
def test_single_qubit_conjugations_match_statevector(gate, rng):
    mats = {"H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            "S": np.diag([1, 1j]), "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    for _ in range(10):
        g = random_graph(4, rng)
        q = int(rng.integers(0, 4))
        t = graph_state_tableau(g)
        t.apply_clifford(gate, [q])
        sv = graph_state_vector(g)
        from mbqc.statevector import apply_local
        apply_local(sv, mats[gate], q)
        assert fidelity_up_to_phase(tableau_to_statevector(t), sv) > 1 - 1e-12


@pytest.mark.parametrize("gate", ["CZ", "CNOT"])
def test_two_qubit_conjugations_match_statevector(gate, rng):
    from mbqc.statevector import apply_cz, apply_local
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for _ in range(10):
        g = random_graph(4, rng)
        a, b = rng.choice(4, size=2, replace=False)
        t = graph_state_tableau(g)
        t.apply_clifford(gate, [int(a), int(b)])
        sv = graph_state_vector(g)
        if gate == "CZ":
            apply_cz(sv, int(a), int(b))
        else:
            apply_local(sv, h, int(b))
            apply_cz(sv, int(a), int(b))
            apply_local(sv, h, int(b))
        assert fidelity_up_to_phase(tableau_to_statevector(t), sv) > 1 - 1e-12


def test_measure_x_on_plus_deterministic():
    t = Tableau.plus_state(1)
    m = t.measure_pauli("X", 0, randomness=5)
    assert m == 0
    assert t.dump() == "+X"


def test_measure_z_on_plus_is_balanced():
    outcomes = {Tableau.plus_state(1).measure_pauli("Z", 0, randomness=s)
                for s in range(20)}
    assert outcomes == {0, 1}


def test_forced_contradiction():
    t = Tableau.plus_state(1)
    with pytest.raises(ContradictionError):
        t.measure_pauli("X", 0, forced=1)


def test_measure_z_on_star_hub_matches_statevector(rng):
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for m in (0, 1):
        t = graph_state_tableau(g)
        got = t.measure_pauli("Z", 0, forced=m)
        assert got == m
        sv = graph_state_vector(g)
        _, sv = measure_angle(sv, 0, "Z", 0.0, forced=m)
        assert fidelity_up_to_phase(tableau_to_statevector(t), sv) > 1 - 1e-10


def test_group_contains_product_of_correlation_operators(rng):
    g = random_graph(5, rng)
    t = graph_state_tableau(g)
    rows = t.stabilizer_rows()
    prod = rows[0]
    for r in rows[1:]:
        prod = prod * r
    assert t.stabilizer_group_contains(prod) == +1
    assert t.stabilizer_group_contains(PauliString(5)) == +1


def test_group_membership_brute_force_two_vertex():
    t = graph_state_tableau(Graph(2, [(0, 1)]))
    group = {}
    rows = t.stabilizer_rows()
    for b0 in (0, 1):
        for b1 in (0, 1):
            p = PauliString(2)
            for b, r in zip((b0, b1), rows):
                if b:
                    p = p * r
            group[(p.x.tobytes(), p.z.tobytes())] = p.sign
    for text in ("+XI", "+IX", "+YZ", "+ZI"):
        p = PauliString.from_text(text)
        expected = group.get((p.x.tobytes(), p.z.tobytes()))
        assert t.stabilizer_group_contains(p) == expected


def test_tableau_statevector_examples():
    sv = tableau_to_statevector(Tableau.plus_state(1))
    assert np.allclose(np.abs(sv.amps), [1 / np.sqrt(2)] * 2)
    t = graph_state_tableau(Graph(2, [(0, 1)]))
    sv = tableau_to_statevector(t)
    ref = graph_state_vector(Graph(2, [(0, 1)]))
    assert fidelity_up_to_phase(sv, ref) > 1 - 1e-12


def test_tableau_statevector_cap():
    from mbqc.errors import CapacityError
    with pytest.raises(CapacityError):
        tableau_to_statevector(Tableau.plus_state(15), cap=14)


def test_invariants_hold_after_random_operations(rng, monkeypatch):
    monkeypatch.setenv("MBQC_CHECK_INVARIANTS", "1")
    g = random_graph(6, rng)
    t = graph_state_tableau(g)
    src = OutcomeSource(rng=rng)
    for _ in range(30):
        r = rng.random()
        if r < 0.4:
            t.apply_clifford(str(rng.choice(["H", "S", "X", "Y", "Z"])),
                             [int(rng.integers(0, 6))])
        elif r < 0.6:
            a, b = rng.choice(6, size=2, replace=False)
            t.apply_clifford(str(rng.choice(["CZ", "CNOT"])), [int(a), int(b)])
        else:
            t.measure_pauli(str(rng.choice(["X", "Y", "Z"])),
                            int(rng.integers(0, 6)), src)
    t.check_invariants()


@pytest.mark.parametrize("value,checked", [(None, False), ("", False), ("0", False),
                                           ("1", True), ("yes", True)])
def test_invariant_checks_follow_the_environment(value, checked, monkeypatch):
    # a destabilizer sign breaks an invariant; only a checking run notices it
    if value is None:
        monkeypatch.delenv("MBQC_CHECK_INVARIANTS", raising=False)
    else:
        monkeypatch.setenv("MBQC_CHECK_INVARIANTS", value)
    for operation in (lambda t: t.apply_clifford("H", [0]),
                      lambda t: t.measure_pauli("X", 0, forced=0)):
        t = graph_state_tableau(Graph(2, [(0, 1)]))
        t.signs[0] = 1
        if checked:
            with pytest.raises(VerificationError, match="destabilizer row 0 has a sign"):
                operation(t)
        else:
            operation(t)


def test_deterministic_before_rng_draw(rng):
    # measuring a stabilizer eigenvalue must not consume randomness
    t = graph_state_tableau(Graph(2, [(0, 1)]))
    src = OutcomeSource.from_seed(99)
    t2 = t.copy()
    m1 = t2.measure_pauli("Z", 0, src)          # balanced, consumes one bit
    row = t2.stabilizer_group_contains(PauliString.single(2, 0, "Z"))
    assert row == (+1 if m1 == 0 else -1)
    before = src.rng.bit_generator.state["state"]["state"]
    t2.measure_pauli("Z", 0, src)               # now deterministic
    after = src.rng.bit_generator.state["state"]["state"]
    assert before == after


def test_extract_subtableau_after_measurement(rng):
    for _ in range(20):
        g = random_graph(5, rng)
        t = graph_state_tableau(g)
        sv = graph_state_vector(g)
        q = int(rng.integers(0, 5))
        basis = str(rng.choice(["X", "Y", "Z"]))
        plane, theta = BASIS_TO_ANGLE[basis]
        p0 = measure_probability(sv, q, plane, theta, 0)
        m = 0 if p0 > 0.5 else 1
        t.measure_pauli(basis, q, forced=m)
        _, sv = measure_angle(sv, q, plane, theta, forced=m)
        keep = [k for k in range(5) if k != q]
        sub = extract_subtableau(t, keep)
        sub.check_invariants()
        from mbqc.statevector import extract_qubits
        assert fidelity_up_to_phase(tableau_to_statevector(sub),
                                    extract_qubits(sv, keep)) > 1 - 1e-10


def test_extract_subtableau_rejects_entangled_cut():
    from mbqc.errors import VerificationError
    t = graph_state_tableau(Graph(2, [(0, 1)]))
    with pytest.raises(VerificationError):
        extract_subtableau(t, [0])


@pytest.mark.parametrize("pivot, other", [("+XI", "+ZZ"), ("+XI", "+YZ"), ("+ZI", "+YX")])
def test_extract_subtableau_rejects_a_row_against_a_one_qubit_pivot(pivot, other):
    """The one-qubit row is qubit 0's pivot; a row holding another Pauli
    there (wrong x bit, z bit or both) cannot be cleared."""
    from mbqc.errors import VerificationError
    t = Tableau(2)
    for i, text in enumerate([pivot, other]):
        row = PauliString.from_text(text)
        t.xs[2 + i], t.zs[2 + i] = row.x, row.z
    with pytest.raises(VerificationError, match="another Pauli on a measured qubit"):
        extract_subtableau(t, [1])


def _extract_per_bit(t, keep):
    """Reference extraction, one bit and one PauliString product at a time:
    eliminate each dropped qubit (ascending, x column before z column) with
    the first unused row as pivot; the unused rows are the kept generators.
    Returns their text on ``keep``, in ``keep`` order."""
    rows = t.stabilizer_rows()
    used = [False] * t.n
    for q in sorted(set(range(t.n)) - set(keep)):
        for which in ("x", "z"):
            hit = [i for i, r in enumerate(rows)
                   if not used[i] and (int(getattr(r, which)[q // 64]) >> (q % 64)) & 1]
            if hit:
                used[hit[0]] = True
                for i in hit[1:]:
                    rows[i] = rows[hit[0]] * rows[i]
    return [("-" if r.sign_bit else "+") + "".join(r.qubit(k) for k in keep)
            for r, u in zip(rows, used) if not u]


def _mix_generators(t, rng):
    """Replace stabilizer rows by products of pairs: other generators, same group."""
    n = t.n
    for i, j in rng.integers(0, n, size=(n, 2)):
        if i != j:
            row = t.stabilizer_row(j) * t.stabilizer_row(i)
            t.xs[n + i], t.zs[n + i], t.signs[n + i] = row.x, row.z, row.sign_bit


def _assert_same_group(sub, ref_texts):
    """``sub`` generates the signed group of the reference rows: as many
    generators, and every reference row a member with sign +1."""
    sub.check_invariants()
    assert len(ref_texts) == sub.n
    for text in ref_texts:
        assert sub.stabilizer_group_contains(PauliString.from_text(text)) == +1


def _n_one_qubit_pivots(t, keep):
    dropped = np.ones(t.n, dtype=bool)
    dropped[keep] = False
    return len(_one_qubit_pivots(t.xs[t.n:], t.zs[t.n:], dropped))


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_extract_subtableau_matches_per_bit_elimination(n):
    """Which generators are chosen is not part of the contract: the output
    generates the reference's signed group.  Unmixed, the measured qubits'
    one-qubit rows are pivots; mixed, most of them go through ``_eliminate``."""
    rng = np.random.default_rng(n)
    for mix in (False, True):
        for _ in range(3):
            t = graph_state_tableau(random_graph(n, rng, p=4 / n))
            keep = [int(q) for q in rng.choice(n, size=4, replace=False)]
            src = OutcomeSource(rng=rng)
            for q in rng.permutation(n):
                if q not in keep:
                    t.measure_pauli(str(rng.choice(["X", "Y", "Z"])), int(q), src)
            if mix:
                _mix_generators(t, rng)
            pivots = _n_one_qubit_pivots(t, keep)
            assert pivots < n // 2 if mix else pivots > n // 2
            _assert_same_group(extract_subtableau(t, keep), _extract_per_bit(t, keep))


@pytest.mark.parametrize("mix", [False, True])
def test_extract_subtableau_without_one_qubit_rows(mix):
    """Dropped qubits in Bell pairs among themselves have no one-qubit row,
    yet the state is a product across the cut: all of them go through
    ``_eliminate``."""
    n, pairs = 130, [(3, 64), (63, 129), (70, 71)]
    rng = np.random.default_rng(5)
    dropped = [q for pair in pairs for q in pair]
    keep = [q for q in rng.permutation(n).tolist() if q not in dropped]
    t = Tableau.plus_state(n)
    for _ in range(4 * n):                      # a random state on the kept qubits
        gate = str(rng.choice(["H", "S", "CZ", "CNOT"]))
        t.apply_clifford(gate, rng.choice(keep, size=1 + (gate in ("CZ", "CNOT")),
                                          replace=False).tolist())
    for a, b in pairs:                          # (|00> + |11>)/sqrt2, then a sign
        t.apply_clifford("H", [b]).apply_clifford("CNOT", [a, b])
        t.apply_clifford(str(rng.choice(["X", "Z"])), [a])
    if mix:
        _mix_generators(t, rng)
    assert _n_one_qubit_pivots(t, keep) == 0
    _assert_same_group(extract_subtableau(t, keep), _extract_per_bit(t, keep))


def _complete_destabilizers_per_element(stabs, n):
    """Reference completion, one matrix element and one PauliString product
    at a time: Gauss-Jordan on the dense [s.z | s.x | I] with a per-row XOR
    loop, then each anticommuting pair (d_i, d_j), i < j, fixed by d_j *= s_i."""
    m = np.zeros((n, 2 * n), dtype=np.uint8)
    for j, s in enumerate(stabs):
        m[j, :n] = unpack_bits(s.z, n)
        m[j, n:] = unpack_bits(s.x, n)
    aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
    pivots = []
    r = 0
    for c in range(2 * n):
        rows_with = np.flatnonzero(aug[r:, c]) + r
        if rows_with.size == 0:
            continue
        if rows_with[0] != r:
            aug[[r, rows_with[0]]] = aug[[rows_with[0], r]]
        for i in range(n):
            if i != r and aug[i, c]:
                aug[i] ^= aug[r]
        pivots.append(c)
        r += 1
        if r == n:
            break
    d = np.zeros((n, 2 * n), dtype=np.uint8)
    d[:, pivots] = aug[:, 2 * n:].T
    destabs = [PauliString.from_bits(row[:n], row[n:], +1) for row in d]
    for i in range(n):
        for j in range(i + 1, n):
            if not destabs[i].commutes_with(destabs[j]):
                prod = destabs[j] * stabs[i]
                destabs[j] = PauliString(n, prod.x, prod.z, +1)
    return destabs


def _random_clifford_tableau(n, rng):
    """|+...+> after 4n random one- and two-qubit Clifford gates: dense,
    random commuting generators."""
    t = Tableau.plus_state(n)
    for _ in range(4 * n):
        gate = str(rng.choice(["H", "S", "CZ", "CNOT"]))
        targets = rng.choice(n, size=1 + (gate in ("CZ", "CNOT")), replace=False)
        t.apply_clifford(gate, [int(q) for q in targets])
    return t


@pytest.mark.parametrize("source", ["graph", "clifford"])
@pytest.mark.parametrize("nk", [63, 64, 65, 130])
def test_destabilizer_completion_matches_per_element_reference(nk, source):
    rng = np.random.default_rng(nk)
    n = nk + 20
    t = (graph_state_tableau(random_graph(n, rng, p=4 / n)) if source == "graph"
         else _random_clifford_tableau(n, rng))
    keep = [int(q) for q in rng.permutation(n)[:nk]]
    src = OutcomeSource(rng=rng)
    for q in sorted(set(range(n)) - set(keep)):     # a measured qubit is a product factor
        t.measure_pauli(str(rng.choice(["X", "Y", "Z"])), q, src)
    sub = extract_subtableau(t, keep)
    ref = _complete_destabilizers_per_element(
        [sub.stabilizer_row(i) for i in range(nk)], nk)
    assert np.array_equal(sub.xs[:nk], [d.x for d in ref])
    assert np.array_equal(sub.zs[:nk], [d.z for d in ref])
    assert not sub.signs[:nk].any()
    # [D; S] pair as [[0, I], [I, 0]]: S-S and D-D commute, D_i-S_j = delta_ij
    xs, zs = sub.xs, sub.zs
    gram = np.bitwise_count((xs[:, None] & zs[None]) ^ (zs[:, None] & xs[None])).sum(-1) % 2
    eye = np.eye(nk, dtype=int)
    assert np.array_equal(gram, np.block([[0 * eye, eye], [eye, 0 * eye]]))


@pytest.mark.parametrize("n", [65, 150])
def test_results_do_not_depend_on_memory_order(n):
    """A tableau is stored column-major, but numpy's semantics do not depend
    on memory order: a twin whose arrays are row-major copies gives the same
    outcomes, rows, text, membership answers and extracted tableau.  A kernel
    that read a tableau's raw buffer (``view``, ``reshape``, ``tobytes``)
    would break this."""
    rng = np.random.default_rng(n)
    t = graph_state_tableau(random_graph(n, rng, p=4 / n))
    twin = t.copy()
    twin.xs, twin.zs = np.ascontiguousarray(twin.xs), np.ascontiguousarray(twin.zs)
    assert t.xs.flags.f_contiguous and not twin.xs.flags.f_contiguous

    def measure(basis, q):
        forced = int(rng.integers(2)) if t.outcome_is_random(basis, q) else None
        return [u.measure_pauli(basis, q, forced=forced) for u in (t, twin)]

    outcomes = []
    for _ in range(3 * n):
        gate = str(rng.choice(["H", "S", "X", "Y", "Z", "CZ", "CNOT", "M"]))
        if gate == "M":
            outcomes.append(measure(str(rng.choice(["X", "Y", "Z"])), int(rng.integers(n))))
        else:
            targets = rng.choice(n, size=1 + (gate in ("CZ", "CNOT")), replace=False).tolist()
            t.apply_clifford(gate, targets)
            twin.apply_clifford(gate, targets)
    assert len(outcomes) > n // 4
    for name in ("xs", "zs", "signs"):
        assert np.array_equal(getattr(t, name), getattr(twin, name))
    assert t.dump() == twin.dump()

    rows = t.stabilizer_rows()
    queries = [PauliString.from_bits(rng.integers(2, size=n), rng.integers(2, size=n))
               for _ in range(20)]
    for _ in range(20):
        member = PauliString(n)
        for i in rng.choice(n, size=5, replace=False):
            member = member * rows[i]
        queries.append(member)
    answers = [t.stabilizer_group_contains(p) for p in queries]
    assert answers == [twin.stabilizer_group_contains(p) for p in queries]
    assert answers[20:] == [+1] * 20

    keep = sorted(rng.choice(n, size=n - 40, replace=False).tolist())
    for q in sorted(set(range(n)) - set(keep)):
        outcomes.append(measure("Z", q))
    assert all(a == b for a, b in outcomes)
    sub, sub_twin = extract_subtableau(t, keep), extract_subtableau(twin, keep)
    sub.check_invariants()
    assert sub.dump() == sub_twin.dump()
    for name in ("xs", "zs", "signs"):
        assert np.array_equal(getattr(sub, name), getattr(sub_twin, name))


def _mul_full_width(t, rows, px, pz, psign, sign_destabilizers):
    """Full-width product of (px, pz, psign) into ``rows``; destabilizer
    rows get no sign unless ``sign_destabilizers``."""
    signed = rows if sign_destabilizers else rows[rows >= t.n]
    unsigned = np.setdiff1d(rows, signed)
    t.xs[unsigned] ^= px
    t.zs[unsigned] ^= pz
    mul_rows_full_width(t.xs, t.zs, t.signs, signed, px, pz, psign)


def _measure_full_width(t, basis, q, m, sign_destabilizers=False, factor=True):
    """Reference update for outcome ``m`` of a Pauli measurement B_q, with
    full-width row products and columns read from unpacked bits; returns
    whether the outcome was random.  Rows that anticommute take the first
    anticommuting stabilizer row p, which becomes (-1)^m B_q.  Destabilizer
    rows multiply without a sign unless ``sign_destabilizers`` (every row
    signed, as in the textbook update).  Without ``factor`` (the textbook
    rule) p's old row moves into its destabilizer slot.  With ``factor``
    every other row that holds B_q is multiplied by (-1)^m B_q, and p's
    destabilizer becomes the one-qubit Pauli that anticommutes with B_q
    (Z for X, X for Y or Z)."""
    n = t.n
    xo, zo = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[basis]
    anti = ((zo * unpack_bits(t.xs, n)[:, q]) ^ (xo * unpack_bits(t.zs, n)[:, q])) != 0
    if not anti[n:].any():
        return False
    p = n + int(np.flatnonzero(anti[n:])[0])
    rows = np.array([r for r in np.flatnonzero(anti) if r not in (p, p - n)], dtype=np.int64)
    _mul_full_width(t, rows, t.xs[p].copy(), t.zs[p].copy(), int(t.signs[p]),
                    sign_destabilizers)
    t.xs[p - n], t.zs[p - n] = t.xs[p], t.zs[p]
    t.signs[p - n] = t.signs[p] if sign_destabilizers else 0
    obs = PauliString.single(n, q, basis)
    t.xs[p], t.zs[p], t.signs[p] = obs.x, obs.z, m
    if factor:
        x, z = unpack_bits(t.xs, n)[:, q], unpack_bits(t.zs, n)[:, q]
        others = np.ones(2 * n, dtype=bool)
        others[[p - n, p]] = False
        held = others & ((x | z) != 0)
        assert np.all((x[held] == xo) & (z[held] == zo))      # only I or B_q is left
        _mul_full_width(t, np.flatnonzero(held), obs.x, obs.z, m, sign_destabilizers)
        c = PauliString.single(n, q, "Z" if basis == "X" else "X")
        t.xs[p - n], t.zs[p - n], t.signs[p - n] = c.x, c.z, 0
    return True


def _clifford_full_width(t, gate, targets):
    """Reference gate update on unpacked bits that signs every row."""
    n, a, b = t.n, targets[0], targets[-1]
    x, z = unpack_bits(t.xs, n), unpack_bits(t.zs, n)
    xa, za, xb, zb = x[:, a].copy(), z[:, a].copy(), x[:, b].copy(), z[:, b].copy()
    t.signs ^= {"H": xa & za, "S": xa & za, "X": za, "Z": xa, "Y": xa ^ za,
                "CNOT": xa & zb & (1 ^ xb ^ za), "CZ": xa & xb & (za ^ zb)}[gate]
    if gate == "H":
        x[:, a], z[:, a] = za, xa
    elif gate == "S":
        z[:, a] ^= xa
    elif gate == "CNOT":
        x[:, b] ^= xa
        z[:, a] ^= zb
    elif gate == "CZ":
        z[:, a] ^= xb
        z[:, b] ^= xa
    t.xs[:], t.zs[:] = pack_bits(x), pack_bits(z)


@pytest.mark.parametrize("n", [65, 130, 300])
def test_unsigned_destabilizers_leave_the_stabilizer_half_unchanged(n):
    """Random gates and X/Y/Z measurements against a reference that signs
    every row: the stabilizer rows and signs agree bit for bit, and so do
    the destabilizer x/z rows, while no destabilizer sign is ever set."""
    rng = np.random.default_rng([n, 13])
    t = Tableau.plus_state(n)
    ref = t.copy()
    src = OutcomeSource(rng=rng)
    for _ in range(2 * n):
        gate = str(rng.choice(["H", "S", "X", "Y", "Z", "CZ", "CNOT"] + ["measure"] * 7))
        if gate == "measure":
            basis, q = str(rng.choice(["X", "Y", "Z"])), int(rng.integers(n))
            _measure_full_width(ref, basis, q, t.measure_pauli(basis, q, src),
                                sign_destabilizers=True)
        else:
            targets = [int(q) for q in rng.permutation(n)[:2 if gate in ("CZ", "CNOT") else 1]]
            t.apply_clifford(gate, targets)
            _clifford_full_width(ref, gate, targets)
    assert np.array_equal(t.xs, ref.xs) and np.array_equal(t.zs, ref.zs)
    assert np.array_equal(t.signs[n:], ref.signs[n:])
    assert not t.signs[:n].any() and ref.signs[:n].any()
    t.check_invariants()


@pytest.mark.parametrize("n", [65, 130, 300])
def test_measurements_match_full_width_reference(n):
    rng = np.random.default_rng(n)
    t = graph_state_tableau(random_graph(n, rng, p=4 / n))
    ref = t.copy()
    src = OutcomeSource(rng=rng)
    for q in rng.integers(0, n, size=n):
        basis = str(rng.choice(["X", "Y", "Z"]))
        _measure_full_width(ref, basis, int(q), t.measure_pauli(basis, int(q), src))
    assert np.array_equal(t.xs, ref.xs) and np.array_equal(t.zs, ref.zs)
    assert np.array_equal(t.signs, ref.signs)


@pytest.mark.parametrize("n", [65, 130, 300])
def test_factoring_keeps_the_signed_group_of_the_textbook_update(n):
    """Random gates and X/Y/Z measurements against the textbook update,
    which leaves the measured qubit in the old pivot's destabilizer: the
    same outcomes from the same source; after every step each reference
    stabilizer row is a member with the same sign and the invariants hold;
    and after a random outcome on q only rows p and p - n touch q."""
    rng = np.random.default_rng([n, 29])
    t = _random_clifford_tableau(n, rng)
    ref = t.copy()
    src, ref_src = OutcomeSource.from_seed(n), OutcomeSource.from_seed(n)
    n_random = 0
    for _ in range(30):
        gate = str(rng.choice(["H", "S", "X", "Y", "Z", "CZ", "CNOT"] + ["measure"] * 7))
        if gate == "measure":
            basis, q = str(rng.choice(["X", "Y", "Z"])), int(rng.integers(n))
            sign = ref.stabilizer_group_contains(PauliString.single(n, q, basis))
            m = ref_src.choose(q, 0.5 if sign is None else float(sign == +1))
            assert t.measure_pauli(basis, q, src) == m
            if _measure_full_width(ref, basis, q, m, factor=False):
                n_random += 1
                touch = np.flatnonzero(unpack_bits(t.xs | t.zs, n)[:, q])
                assert len(touch) == 2 and touch[1] == touch[0] + n
                assert t.stabilizer_row(int(touch[0])) == PauliString.single(
                    n, q, basis, -1 if m else +1)
        else:
            targets = [int(q) for q in rng.permutation(n)[:2 if gate in ("CZ", "CNOT") else 1]]
            t.apply_clifford(gate, targets)
            _clifford_full_width(ref, gate, targets)
        assert all(t.stabilizer_group_contains(row) == +1 for row in ref.stabilizer_rows())
        t.check_invariants()
    assert n_random > 0


def test_forced_with_an_outcome_source_is_rejected():
    src = OutcomeSource.from_seed(0)
    with pytest.raises(ValidationError, match="forced"):
        Tableau.plus_state(1).measure_pauli("Z", 0, src, forced=1)
    with pytest.raises(ValidationError, match="forced"):
        measure_angle(StateVector.computational(1, 0), 0, "XY", 0.0, src, forced=1)
    wire = MeasurementPattern(Graph(2, [(0, 1)]), [0], [1],
                              [MeasurementCommand(0, "XY", 0.0)], {})
    with pytest.raises(ValidationError, match="forced"):
        run_pattern(wire, randomness=src, forced={0: 1})
    assert run_pattern(wire, randomness=OutcomeSource.from_seed(0, forced={0: 1})
                       ).outcomes == {0: 1}


def test_z_removal_rule_on_tableau(rng):
    # Z-measure v, apply Z^m to its neighbors: the rest is the graph state
    # of G minus v, checked entirely inside the stabilizer formalism
    for _ in range(25):
        n = int(rng.integers(2, 8))
        g = random_graph(n, rng)
        v = int(rng.integers(0, n))
        t = graph_state_tableau(g)
        m = t.measure_pauli("Z", v, OutcomeSource(rng=rng))
        if m:
            for u in g.neighbors(v):
                t.apply_clifford("Z", [u])
        keep = [q for q in range(n) if q != v]
        sub = extract_subtableau(t, keep)
        ref = graph_state_tableau(g.without_vertices([v]))
        for j in range(n - 1):
            assert sub.stabilizer_group_contains(ref.stabilizer_row(j)) == +1


def test_dump_golden_format():
    t = graph_state_tableau(Graph(3, [(0, 1), (1, 2)]))
    assert t.dump() == "+XZI\n+ZXZ\n+IZX"


def _scrambled_tableau(n, rng, n_measured):
    """Graph state on n qubits after random single-qubit Pauli measurements."""
    t = graph_state_tableau(random_graph(n, rng, p=0.1))
    src = OutcomeSource(rng=rng)
    for q in rng.choice(n, size=n_measured, replace=False):
        t.measure_pauli(str(rng.choice(["X", "Y", "Z"])), int(q), src)
    return t


def test_check_invariants_catches_anticommuting_stabilizers(rng):
    from mbqc.errors import VerificationError
    n = 70                                      # two words per row
    t = _scrambled_tableau(n, rng, 30)
    t.check_invariants()
    i, j = 3, 66
    # S_i * D_j still pairs with D_i but anticommutes with S_j only
    t.xs[n + i] ^= t.xs[j]
    t.zs[n + i] ^= t.zs[j]
    with pytest.raises(VerificationError, match=f"stabilizer rows {i},{j} anticommute"):
        t.check_invariants()


def test_check_invariants_catches_broken_pairing(rng):
    from mbqc.errors import VerificationError
    n = 70
    t = _scrambled_tableau(n, rng, 30)
    i, j = 67, 5
    # D_i * D_j anticommutes with S_j as well as S_i; stabilizers untouched
    t.xs[i] ^= t.xs[j]
    t.zs[i] ^= t.zs[j]
    with pytest.raises(VerificationError, match=rf"destabilizer pairing broken at \({j},{i}\)"):
        t.check_invariants()


def test_check_invariants_catches_anticommuting_destabilizers(rng):
    from mbqc.errors import VerificationError
    n = 70
    t = _scrambled_tableau(n, rng, 30)
    i, j = 4, 68
    # D_i * S_j keeps every destabilizer-stabilizer pairing but anticommutes with D_j
    t.xs[i] ^= t.xs[n + j]
    t.zs[i] ^= t.zs[n + j]
    with pytest.raises(VerificationError, match=f"destabilizer rows {i},{j} anticommute"):
        t.check_invariants()


def test_check_invariants_catches_a_destabilizer_sign(rng):
    from mbqc.errors import VerificationError
    t = _scrambled_tableau(70, rng, 30)
    t.signs[5] = 1
    with pytest.raises(VerificationError, match="destabilizer row 5 has a sign"):
        t.check_invariants()


def _first_fault(t):
    """The message the structure check gives, found row by row: for each i
    in turn, a destabilizer sign, then stabilizer i against the stabilizers,
    then against the destabilizers (expect only destabilizer i), then
    destabilizer i against the destabilizers."""
    n, d, s = t.n, slice(0, t.n), slice(t.n, 2 * t.n)
    for i in range(n):
        if t.signs[i]:
            return f"destabilizer row {i} has a sign"
        checks = [(s, n + i, False, "stabilizer rows {},{} anticommute"),
                  (d, n + i, True, "destabilizer pairing broken at ({},{})"),
                  (d, i, False, "destabilizer rows {},{} anticommute")]
        for rows, row, paired, message in checks:
            bad = anticommuting(t.xs[rows], t.zs[rows], t.xs[row], t.zs[row])
            bad[i] ^= paired
            if bad.any():
                return message.format(i, int(np.flatnonzero(bad)[0]))
    return None


def test_check_invariants_catches_every_one_bit_corruption(rng):
    """Flip one x, z or destabilizer sign bit: the check raises the message
    of a row-by-row search, or passes where that search finds no fault, and
    each of the four kinds of fault is met."""
    from mbqc.errors import VerificationError
    n = 70                                      # two words per row
    clean = _scrambled_tableau(n, rng, 30)
    assert _first_fault(clean) is None
    kinds = set()
    for _ in range(60):
        t = clean.copy()
        what, row, q = str(rng.choice(["x", "z", "sign"])), int(rng.integers(2 * n)), int(
            rng.integers(n))
        if what == "sign":
            t.signs[row % n] = 1
        else:
            bits = t.xs if what == "x" else t.zs
            bits[row, q >> 6] ^= np.uint64(1 << (q & 63))
        want = _first_fault(t)
        if want is None:            # e.g. the flipped row is the only one with the other bit
            t.check_invariants()
            continue
        with pytest.raises(VerificationError) as err:
            t.check_invariants()
        assert str(err.value) == want
        kinds.add(re.sub(r"\d+", "#", want))
    assert len(kinds) == 4


def test_deterministic_outcome_is_group_membership(rng):
    n = 80
    t = _scrambled_tableau(n, rng, 40)
    n_det = 0
    for q in range(n):
        for basis in "XYZ":
            sign = t.stabilizer_group_contains(PauliString.single(n, q, basis))
            if t.outcome_is_random(basis, q):
                assert sign is None
                continue
            n_det += 1
            scratch = t.copy()
            m = scratch.measure_pauli(basis, q, OutcomeSource.from_seed(0))
            assert sign == (-1) ** m
            assert np.array_equal(scratch.xs, t.xs) and np.array_equal(scratch.signs, t.signs)
    assert n_det >= 40                          # every measured qubit, at least


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_graph_state_rows_are_x_times_neighbour_z(n, rng):
    g = random_graph(n, rng, p=min(1.0, 3.0 / n))
    t = graph_state_tableau(g)
    adj = g.adjacency()
    for j in range(n):
        want = ["X" if k == j else "Z" if k in adj[j] else "I" for k in range(n)]
        assert t.stabilizer_row(j) == PauliString.from_text("+" + "".join(want))
        assert t.destabilizer_row(j) == PauliString.single(n, j, "Z")
    t.check_invariants()


class CountingSource(OutcomeSource):
    """An OutcomeSource that counts its fair draws."""

    def __init__(self, seed, forced=None):
        super().__init__(make_rng(seed), forced)
        self.draws = 0

    def draw(self, key):
        self.draws += 1
        return super().draw(key)


def test_choose_follows_one_rule():
    src = CountingSource(3, forced={5: 1})
    assert src.choose(1, 1.0 - PROB_TOL / 2) == 0 and src.choose(1, PROB_TOL / 2) == 1
    assert src.draws == 0                                    # certain: no draw
    assert src.choose(1, 0.3) in (0, 1) and src.draws == 1   # otherwise one draw
    assert src.choose(5, 0.5) == 1 and src.draws == 1        # a forced bit wins
    with pytest.raises(ContradictionError, match="outcome 1 at site 5 has probability"):
        src.choose(5, 1.0)


def _zero_state(backend):
    if backend == "sv":
        return StateVector.computational(1, 0)
    t = Tableau.plus_state(1)
    t.apply_clifford("H", [0])
    return t


def _measure(backend, state, basis, src):
    if backend == "sv":
        plane, theta = BASIS_TO_ANGLE[basis]
        return measure_angle(state, 0, plane, theta, src)[0]
    return state.copy().measure_pauli(basis, 0, src)


@pytest.mark.parametrize("backend", ["sv", "stab"])
def test_choose_on_both_backends(backend):
    zero = _zero_state(backend)
    src = CountingSource(7)
    assert _measure(backend, zero, "Z", src) == 0 and src.draws == 0
    outcomes = [_measure(backend, zero, "X", src) for _ in range(40)]
    assert src.draws == 40 and set(outcomes) == {0, 1}
    forced = CountingSource(7, forced={0: 1})
    assert _measure(backend, zero, "X", forced) == 1 and forced.draws == 0
    with pytest.raises(ContradictionError, match="outcome 1 at site 0 has probability"):
        _measure(backend, zero, "Z", forced)
