import numpy as np
import pytest
from conftest import (
    complement,
    random_system_with_classical_qubits,
    sigma_z_expectation,
    structurally_entangled,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import witness_lab.witness as witness_module
from witness_lab import (
    SCHMIDT_TOL,
    Bipartition,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    check_pinned_pairs,
    diagonalize,
    ground_state,
    is_fully_separable,
    is_separable,
)
from witness_lab.separability import schmidt_coefficients
from witness_lab.witness import enumerate_bipartitions, solve_witness_report


def basis_state(n, index):
    vec = np.zeros(1 << n)
    vec[index] = 1.0
    return vec


def schmidt_rank(coefficients):
    return int(np.count_nonzero(coefficients > SCHMIDT_TOL))


def bell_state():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    return vec


def ghz_state(n=3):
    vec = np.zeros(1 << n)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return vec


def w_state():
    vec = np.zeros(8)
    vec[1] = vec[2] = vec[4] = 1.0 / np.sqrt(3.0)
    return vec


class TestSchmidtCoefficients:
    def test_product_basis_state(self):
        coefficients = schmidt_coefficients(basis_state(2, 0), Bipartition(1, 2))
        assert np.array_equal(coefficients, [1.0, 0.0])
        assert schmidt_rank(coefficients) == 1
        assert not coefficients.flags.writeable

    def test_bell_state(self):
        coefficients = schmidt_coefficients(bell_state(), Bipartition(1, 2))
        assert np.allclose(coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert schmidt_rank(coefficients) == 2

    def test_ghz_across_one_vs_two(self):
        coefficients = schmidt_coefficients(ghz_state(), Bipartition(1, 3))
        assert np.allclose(coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert schmidt_rank(coefficients) == 2

    def test_descending_and_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            vec = rng.normal(size=1 << n)
            vec /= np.linalg.norm(vec)
            mask = (int(rng.integers(0, (1 << (n - 1)) - 1)) << 1) | 1
            cut = Bipartition(mask, n)
            coefficients = schmidt_coefficients(vec, cut)
            assert np.all(np.diff(coefficients) <= 0.0)
            assert np.all(coefficients >= 0.0)
            assert abs(np.sum(coefficients**2) - 1.0) <= 1e-9
            assert 1 <= schmidt_rank(coefficients) <= min(
                1 << len(cut.members), 1 << len(cut.complement_members)
            )

    def test_complement_has_same_coefficients(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        cut = Bipartition(0b0101, 4)
        a = schmidt_coefficients(vec, cut)
        b = schmidt_coefficients(vec, complement(cut))
        k = min(len(a), len(b))
        assert np.allclose(a[:k], b[:k], atol=1e-12)
        assert np.allclose(a[k:], 0.0, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            schmidt_coefficients(np.ones(4), Bipartition(1, 2))

    def test_interleaved_cut_reshape(self):
        # |psi> = |+>_1 x |01>_{0,2}: qubits 0 and 2 in a product basis state,
        # qubit 1 in superposition; the cut {0,2}|{1} must be separable
        vec = np.zeros(8)
        # qubit0=0, qubit2=1 fixed; qubit1 in (|0>+|1>)/sqrt(2): indices 001, 011
        vec[0b001] = vec[0b011] = 1.0 / np.sqrt(2.0)
        assert is_separable(vec, Bipartition(0b101, 3))
        assert is_separable(vec, Bipartition(0b010, 3))


class TestIsSeparable:
    def test_basis_state_any_cut(self):
        vec = basis_state(3, 0b010)
        for mask in (1, 3, 5, 2, 4, 6):
            assert is_separable(vec, Bipartition(mask, 3))

    def test_bell_pair_not_separable(self):
        assert not is_separable(bell_state(), Bipartition(1, 2))

    def test_pinned_ground_state_is_separable(self):
        system = QubitSystem.from_couplings([1.0, 0.0], [0.3, 5.0], [(0, 1, 0.4)])
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        assert is_separable(gs.vector, Bipartition(1, 2))


class TestIsFullySeparable:
    def test_basis_state(self):
        assert is_fully_separable(basis_state(4, 0b0110))

    def test_bell_times_free_qubit(self):
        vec = np.kron(bell_state(), np.array([1.0, 0.0]))
        assert not is_fully_separable(vec)

    def test_w_state(self):
        assert not is_fully_separable(w_state())

    def test_single_qubit_trivially_separable(self):
        assert is_fully_separable(np.array([0.6, 0.8]))

    def test_product_of_rotated_qubits(self):
        one = np.array([np.cos(0.3), np.sin(0.3)])
        two = np.array([np.cos(1.1), -np.sin(1.1)])
        three = np.array([1.0, 0.0])
        assert is_fully_separable(np.kron(np.kron(one, two), three))


class TestPinnedPairRule:
    def test_classical_ground_state_passes(self):
        system = QubitSystem.from_couplings(
            [0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [(0, 1, 0.7), (1, 2, -0.4)]
        )
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        assert check_pinned_pairs(gs.vector, system) == []
        assert all(
            abs(abs(sigma_z_expectation(gs.vector, i)) - 1.0) <= 1e-12 for i in range(3)
        )

    def test_pinned_pair_instance(self):
        system = QubitSystem.from_couplings([1.0, 0.0], [0.3, 5.0], [(0, 1, 0.4)])
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        assert check_pinned_pairs(gs.vector, system) == []
        # frozen from the 4x4 brute force: -0.1/sqrt(0.26)
        assert abs(sigma_z_expectation(gs.vector, 0) - (-0.19611613513818404)) <= 1e-9
        assert abs(sigma_z_expectation(gs.vector, 1)) >= 1.0 - 1e-9

    def test_uncoupled_pair_vacuous(self):
        system = QubitSystem(delta=[1.0, 0.8], h=[0.2, 0.1], J=np.zeros((2, 2)))
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        assert check_pinned_pairs(gs.vector, system) == []

    def test_rejects_non_eigenstate(self):
        system = QubitSystem.from_couplings([1.0, 1.0], [0.0, 0.0], [(0, 1, -1.0)])
        vec = np.zeros(4)
        vec[0] = 1.0  # not an eigenstate once tunneling is on
        with pytest.raises(ValueError, match="eigenstate"):
            check_pinned_pairs(vec, system)

    def test_rejects_entangled_eigenstate(self):
        system = QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        with pytest.raises(ValueError, match="separable"):
            check_pinned_pairs(gs.vector, system)


magnitudes = st.floats(0.1, 1.5) | st.floats(-1.5, -0.1)


@st.composite
def systems_with_classical_qubits(draw):
    """n = 2..6 qubits, each classical (delta = 0) with probability 1/4,
    half of the couplings zero."""
    n = draw(st.integers(2, 6))
    delta = [
        0.0 if draw(st.sampled_from([True, False, False, False])) else draw(magnitudes)
        for _ in range(n)
    ]
    h = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                J[i, j] = J[j, i] = draw(magnitudes)
    return QubitSystem(delta=delta, h=h, J=J)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(systems_with_classical_qubits())
def test_structural_rule_matches_schmidt_coefficients(system):
    # Each way: a cut the rule calls a product has a second Schmidt
    # coefficient of at most 1e-10, an entangled one at least 1e-9.
    # Degenerate draws, two classical sectors tying, are skipped.
    spec = diagonalize(build_hamiltonian(system))
    try:
        vector = ground_state(spec).vector
    except DegenerateGroundError:
        assume(False)
    for cut in enumerate_bipartitions(system.n):
        second = schmidt_coefficients(vector, cut)[1]
        if structurally_entangled(system, cut):
            assert second >= 1e-9, (cut, second)
        else:
            assert second <= 1e-10, (cut, second)


def structural_soundness_counts(system):
    """Cuts of ``system``'s witness report with ``w_tilde != 0.0``, all of
    which must be structurally entangled, and coupled cuts the rule calls a
    product, on which a solver's rounding would show if it reached
    ``w_tilde``; ``(0, 0)`` for a degenerate draw."""
    try:
        report = solve_witness_report(system)
    except DegenerateGroundError:
        return 0, 0
    nonzero = product = 0
    for cut in report.cuts:
        entangled = structurally_entangled(system, cut.partition)
        if cut.w_tilde != 0.0:
            assert entangled, (system, cut)
            nonzero += 1
        product += cut.n_ab > 0 and not entangled
    return nonzero, product


@pytest.mark.parametrize("n", range(2, 8))
def test_nonzero_w_tilde_only_on_structurally_entangled_cuts(n):
    rng = np.random.default_rng(900 + n)
    counts = [
        structural_soundness_counts(random_system_with_classical_qubits(rng, n))
        for _ in range(20)
    ]
    assert all(map(sum, zip(*counts)))  # neither side of the rule is vacuous


def test_nonzero_w_tilde_only_on_structurally_entangled_cuts_on_the_krylov_route(
    monkeypatch,
):
    routes = []
    solve = witness_module._solve

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        routes.append(result[0].route)
        return result

    monkeypatch.setattr(witness_module, "_solve", recording)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        nonzero, product = structural_soundness_counts(
            random_system_with_classical_qubits(rng, 10)
        )
        assert nonzero and product
    assert routes == ["krylov", "krylov"]
