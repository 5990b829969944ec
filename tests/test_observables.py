import numpy as np
import pytest
from conftest import brute_chi_sos, brute_ground, random_couplings

from witness_lab import (
    AffinePath,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    cross_susceptibility_matrix,
    default_fd_step,
    diagonalize,
    lambda_susceptibility,
    observable_record,
    sigma_z_expectation,
    sigma_z_profile,
    susceptibility_fd,
    susceptibility_sos,
)


def spectrum_of(system):
    return diagonalize(build_hamiltonian(system))


def single_qubit(delta=1.0, h=0.0):
    return QubitSystem(delta=[delta], h=[h], J=np.zeros((1, 1)))


def random_system(rng, n, zero_pairs=()):
    return QubitSystem(
        delta=rng.uniform(-1, 1, n),
        h=rng.uniform(-1, 1, n),
        J=random_couplings(rng, n, zero_pairs),
    )


class TestSigmaZExpectation:
    def test_basis_states(self):
        assert sigma_z_expectation(np.array([1.0, 0.0]), 0) == 1.0
        ket11 = np.zeros(4)
        ket11[3] = 1.0
        assert sigma_z_expectation(ket11, 1) == -1.0
        assert sigma_z_expectation(ket11, 0) == -1.0

    def test_bell_state_is_balanced(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        assert abs(sigma_z_expectation(bell, 0)) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            sigma_z_expectation(np.array([1.0, 1.0]), 0)

    def test_rejects_bad_length_or_index(self):
        with pytest.raises(ValueError):
            sigma_z_expectation(np.array([1.0, 0.0, 0.0]), 0)
        with pytest.raises(ValueError):
            sigma_z_expectation(np.array([1.0, 0.0]), 1)

    def test_profile_matches_scalar_and_stays_bounded(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        profile = sigma_z_profile(vec)
        for i in range(3):
            assert profile[i] == sigma_z_expectation(vec, i)
            assert -1.0 - 1e-12 <= profile[i] <= 1.0 + 1e-12


class TestSumOverStates:
    def test_single_qubit_analytic(self):
        # d<sz>/dh of h/sqrt(h^2 + delta^2/4) at h=0 is 2/delta
        chi = susceptibility_sos(spectrum_of(single_qubit()), 0, 0)
        assert abs(chi - 2.0) <= 1e-9

    def test_uncoupled_qubits_have_zero_cross_term(self):
        system = QubitSystem(delta=[1.0, 0.7], h=[0.2, -0.1], J=np.zeros((2, 2)))
        chi = susceptibility_sos(spectrum_of(system), 0, 1)
        assert abs(chi) <= 1e-12

    def test_symmetric_and_matches_fd(self):
        system = QubitSystem.from_couplings([1.0, 1.0], [0.1, 0.2], [(0, 1, -0.5)])
        spec = spectrum_of(system)
        c01 = susceptibility_sos(spec, 0, 1)
        c10 = susceptibility_sos(spec, 1, 0)
        assert abs(c01 - c10) <= 1e-9
        fd = susceptibility_fd(system, 0, 1)
        assert abs(c01 - fd) <= 1e-5 * max(1.0, abs(c01))

    def test_matches_brute_force_formula(self):
        rng = np.random.default_rng(21)
        system = random_system(rng, 3)
        spec = spectrum_of(system)
        energies, vectors = brute_ground(system.delta, system.h, system.J)
        for i in range(3):
            for j in range(3):
                expected = brute_chi_sos(energies, vectors, i, j, 3)
                got = susceptibility_sos(spec, i, j)
                assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_degenerate_ground_raises(self):
        system = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, 1.0)])
        spec = spectrum_of(system)
        with pytest.raises(DegenerateGroundError):
            susceptibility_sos(spec, 0, 1)

    def test_matrix_agrees_with_pairs_and_is_symmetric(self):
        rng = np.random.default_rng(8)
        system = random_system(rng, 4)
        spec = spectrum_of(system)
        chi = cross_susceptibility_matrix(spec)
        assert np.array_equal(chi, chi.T)
        for i in range(4):
            for j in range(4):
                pair = susceptibility_sos(spec, i, j)
                assert abs(chi[i, j] - pair) <= 1e-9 * max(1.0, abs(pair))

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            system = random_system(rng, 3)
            spec = spectrum_of(system)
            try:
                chi = cross_susceptibility_matrix(spec)
            except DegenerateGroundError:
                continue
            assert np.all(np.diag(chi) >= 0.0)

    def test_disconnected_blocks_have_zero_cross_susceptibility(self):
        # qubits {0,1} and {2} share no coupling path
        rng = np.random.default_rng(10)
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = rng.uniform(-1, 1)
        system = QubitSystem(
            delta=rng.uniform(0.2, 1.0, 3), h=rng.uniform(-1, 1, 3), J=J
        )
        spec = spectrum_of(system)
        chi = cross_susceptibility_matrix(spec)
        assert abs(chi[0, 2]) <= 1e-10
        assert abs(chi[1, 2]) <= 1e-10


class TestFiniteDifference:
    def test_single_qubit_analytic(self):
        chi = susceptibility_fd(single_qubit(), 0, 0, step=1e-4)
        assert abs(chi - 2.0) <= 1e-6

    def test_uncoupled_cross_term_zero(self):
        system = QubitSystem(delta=[1.0, 0.7], h=[0.2, -0.1], J=np.zeros((2, 2)))
        assert abs(susceptibility_fd(system, 0, 1)) <= 1e-10

    def test_agrees_with_sum_over_states(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(200):
            if checked == 10:
                break
            system = random_system(rng, 4)
            spec = spectrum_of(system)
            gap = spec.energies[1] - spec.energies[0]
            if gap < 0.1:  # keep the fixed step inside its validity window
                continue
            step = default_fd_step(system)
            for i in range(4):
                for j in range(4):
                    sos = susceptibility_sos(spec, i, j)
                    fd = susceptibility_fd(system, i, j, step=step)
                    assert abs(fd - sos) <= 1e-5 * max(1.0, abs(sos))
            checked += 1
        assert checked == 10

    def test_degenerate_displaced_point_raises(self):
        # a free qubit with delta = h = 0 keeps every level doubly degenerate
        # no matter how the other bias is displaced
        system = QubitSystem(delta=[1.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        with pytest.raises(DegenerateGroundError):
            susceptibility_fd(system, 0, 0, step=1e-4)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            susceptibility_fd(single_qubit(), 0, 0, step=0.0)

    @pytest.mark.parametrize("step", [-1e-4, np.nan, np.inf])
    def test_rejects_negative_or_nonfinite_step(self, step):
        with pytest.raises(ValueError, match="fd_step must be positive and finite"):
            susceptibility_fd(single_qubit(), 0, 0, step=step)

    def test_default_step_tracks_coefficient_scale(self):
        assert default_fd_step(single_qubit()) == 1e-4
        big = QubitSystem(delta=[10.0], h=[0.0], J=np.zeros((1, 1)))
        assert default_fd_step(big) == 1e-4 * 10.0


class TestLambdaSusceptibility:
    def test_uniform_bias_single_qubit(self):
        path = AffinePath(
            base=single_qubit(),
            direction=QubitSystem(delta=[0.0], h=[1.0], J=np.zeros((1, 1))),
        )
        chi = lambda_susceptibility(path, 0, lambda0=0.0)
        assert abs(chi - 2.0) <= 1e-6

    def test_constant_path_gives_zero(self):
        system = QubitSystem.from_couplings([1.0, 0.8], [0.3, 0.1], [(0, 1, 0.4)])
        path = AffinePath(
            base=system,
            direction=QubitSystem(delta=[0.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2))),
        )
        assert lambda_susceptibility(path, 0) == 0.0
        assert lambda_susceptibility(path, 1) == 0.0

    def test_single_qubit_bias_direction_equals_cross_susceptibility(self):
        system = QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])
        path = AffinePath(
            base=system,
            direction=QubitSystem(delta=[0.0, 0.0], h=[1.0, 0.0], J=np.zeros((2, 2))),
        )
        chi_path = lambda_susceptibility(path, 1, lambda0=0.0, step=1e-6)
        chi_10 = susceptibility_sos(spectrum_of(system), 1, 0)
        assert chi_path != 0.0
        assert abs(chi_path - chi_10) <= 1e-4 * max(1.0, abs(chi_10))

    def test_index_validation(self):
        path = AffinePath(
            base=single_qubit(),
            direction=QubitSystem(delta=[0.0], h=[1.0], J=np.zeros((1, 1))),
        )
        with pytest.raises(ValueError):
            lambda_susceptibility(path, 1)


class TestObservableRecord:
    def test_record_shape_and_invariants(self):
        rng = np.random.default_rng(13)
        system = random_system(rng, 3)
        record = observable_record(spectrum_of(system))
        assert record.sz.shape == (3,)
        assert record.chi.shape == (3, 3)
        assert np.all(np.abs(record.sz) <= 1.0 + 1e-12)
        assert np.abs(record.chi - record.chi.T).max() <= 1e-9
