import numpy as np
import pytest
from conftest import (
    brute_chi_sos,
    brute_ground,
    default_fd_step,
    lambda_susceptibilities,
    lambda_susceptibility,
    random_couplings,
    resolve_fd_step,
    sigma_z_expectation,
    susceptibility_fd,
)

from witness_lab import (
    AffinePath,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    cross_susceptibility_matrix,
    diagonalize,
    sigma_z_profile,
)
from witness_lab.model import sigma_z_table
from witness_lab.observables import path_response


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
        with pytest.raises(ValueError, match="normalized"):
            sigma_z_profile(np.array([1.0, 1.0]))

    def test_rejects_bad_length_or_index(self):
        with pytest.raises(ValueError):
            sigma_z_expectation(np.array([1.0, 0.0, 0.0]), 0)
        with pytest.raises(ValueError):
            sigma_z_expectation(np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError, match="power of two"):
            sigma_z_profile(np.array([1.0, 0.0, 0.0]))

    def test_profile_matches_scalar_and_stays_bounded(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        profile = sigma_z_profile(vec)
        for i in range(3):
            assert profile[i] == sigma_z_expectation(vec, i)
            assert -1.0 - 1e-12 <= profile[i] <= 1.0 + 1e-12


    def test_stack_matches_per_row_dot_bitwise(self):
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            V = rng.normal(size=(11, 1 << n))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            signs = sigma_z_table(n)
            expected = np.array([[float(np.dot(row * v, v)) for row in signs] for v in V])
            profile = sigma_z_profile(V)
            assert profile.shape == (11, n)
            assert profile.tobytes() == expected.tobytes()
            assert sigma_z_profile(V[4]).tobytes() == expected[4].tobytes()

    def test_stack_rejects_any_unnormalized_row(self):
        V = np.eye(4)
        V[2] *= 1.5
        with pytest.raises(ValueError, match="normalized: .* = 5.000e-01"):
            sigma_z_profile(V)
        with pytest.raises(ValueError, match="vector"):
            sigma_z_profile(np.ones((1, 1, 2)))


class TestSumOverStates:
    def test_single_qubit_analytic(self):
        # d<sz>/dh of h/sqrt(h^2 + delta^2/4) at h=0 is 2/delta
        chi = cross_susceptibility_matrix(spectrum_of(single_qubit()))
        assert abs(chi[0, 0] - 2.0) <= 1e-9

    def test_uncoupled_qubits_have_zero_cross_term(self):
        system = QubitSystem(delta=[1.0, 0.7], h=[0.2, -0.1], J=np.zeros((2, 2)))
        chi = cross_susceptibility_matrix(spectrum_of(system))
        assert abs(chi[0, 1]) <= 1e-12

    def test_symmetric_and_matches_fd(self):
        system = QubitSystem.from_couplings([1.0, 1.0], [0.1, 0.2], [(0, 1, -0.5)])
        chi = cross_susceptibility_matrix(spectrum_of(system))
        assert chi[0, 1] == chi[1, 0]
        fd = susceptibility_fd(system, 0, 1)
        assert abs(chi[0, 1] - fd) <= 1e-5 * max(1.0, abs(chi[0, 1]))

    def test_matches_brute_force_formula(self):
        rng = np.random.default_rng(21)
        system = random_system(rng, 3)
        chi = cross_susceptibility_matrix(spectrum_of(system))
        energies, vectors = brute_ground(system.delta, system.h, system.J)
        for i in range(3):
            for j in range(3):
                expected = brute_chi_sos(energies, vectors, i, j, 3)
                assert abs(chi[i, j] - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_degenerate_ground_raises(self):
        system = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, 1.0)])
        spec = spectrum_of(system)
        with pytest.raises(DegenerateGroundError):
            cross_susceptibility_matrix(spec)

    def test_matrix_agrees_with_pairs_and_is_symmetric(self):
        rng = np.random.default_rng(8)
        system = random_system(rng, 4)
        chi = cross_susceptibility_matrix(spectrum_of(system))
        assert np.array_equal(chi, chi.T)
        energies, vectors = brute_ground(system.delta, system.h, system.J)
        for i in range(4):
            for j in range(4):
                pair = brute_chi_sos(energies, vectors, i, j, 4)
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
            chi = cross_susceptibility_matrix(spec)
            for i in range(4):
                for j in range(4):
                    sos = chi[i, j]
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
            resolve_fd_step(0.0, single_qubit())

    @pytest.mark.parametrize("step", [-1e-4, np.nan, np.inf])
    def test_rejects_negative_or_nonfinite_step(self, step):
        with pytest.raises(ValueError, match="fd_step must be positive and finite"):
            resolve_fd_step(step, single_qubit())

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
        chi_10 = cross_susceptibility_matrix(spectrum_of(system))[1, 0]
        assert chi_path != 0.0
        assert abs(chi_path - chi_10) <= 1e-4 * max(1.0, abs(chi_10))

    def test_index_validation(self):
        path = AffinePath(
            base=single_qubit(),
            direction=QubitSystem(delta=[0.0], h=[1.0], J=np.zeros((1, 1))),
        )
        with pytest.raises(ValueError):
            lambda_susceptibility(path, 1)


def moving_path(rng, n, moving):
    """Random path at a base with every qubit tunneling, whose direction is
    nonzero only in the coefficient named by ``moving``."""
    J = random_couplings(rng, n)
    direction = QubitSystem(
        delta=rng.uniform(-1, 1, n) * (moving == "delta"),
        h=rng.uniform(-1, 1, n) * (moving == "h"),
        J=random_couplings(rng, n) * (moving == "J"),
    )
    base = QubitSystem(delta=rng.uniform(0.3, 1, n), h=rng.uniform(-1, 1, n), J=J)
    return AffinePath(base=base, direction=direction)


class TestPathResponse:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("moving", ["delta", "h", "J"])
    def test_matches_finite_difference_oracle(self, n, moving):
        rng = np.random.default_rng(500 + 10 * n + len(moving))
        lambda0 = 0.3
        for _ in range(50):
            path = moving_path(rng, n, moving)
            system = path.at(lambda0)
            gap = np.diff(spectrum_of(system).energies[:2])[0]
            # the stencil's truncation error grows as (step / gap)^2
            if gap >= 0.1 * max(1.0, system.coefficient_scale):
                break
        else:
            pytest.fail("no gapped instance found")
        exact = path_response(system, path.direction)
        # A quarter of the default step: the stencil's error falls as step^2,
        # 16-fold here, which is what shows the exact route to be exact.
        fd = lambda_susceptibilities(path, lambda0, default_fd_step(system) / 4)
        assert np.any(exact != 0.0)
        assert np.max(np.abs(exact - fd)) <= 2e-6 * max(1.0, np.abs(exact).max())

    def test_uniform_bias_direction_is_chi_times_h(self):
        rng = np.random.default_rng(31)
        for n in range(1, 8):
            system = random_system(rng, n)
            direction = QubitSystem(
                delta=np.zeros(n), h=np.full(n, 0.7), J=np.zeros((n, n))
            )
            chi = cross_susceptibility_matrix(spectrum_of(system))
            response = path_response(system, direction)
            assert np.max(np.abs(response - chi @ direction.h)) <= 1e-12 * max(
                1.0, np.abs(response).max()
            )

    def test_single_qubit_analytic(self):
        direction = QubitSystem(delta=[0.0], h=[1.0], J=np.zeros((1, 1)))
        assert abs(path_response(single_qubit(), direction)[0] - 2.0) <= 1e-12

    def test_zero_direction_gives_exact_zero(self):
        system = QubitSystem.from_couplings([1.0, 0.8], [0.3, 0.1], [(0, 1, 0.4)])
        zero = QubitSystem(delta=[0.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        assert np.array_equal(np.abs(path_response(system, zero)), [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-3, 1e150])
    def test_linear_in_the_direction(self, scale):
        rng = np.random.default_rng(32)
        path = moving_path(rng, 4, "delta")
        d = path.direction
        scaled = QubitSystem(delta=scale * d.delta, h=scale * d.h, J=scale * d.J)
        unit = path_response(path.base, d)
        assert np.max(np.abs(path_response(path.base, scaled) - scale * unit)) <= (
            1e-12 * scale * np.abs(unit).max()
        )

    def test_overflowing_response_raises(self):
        # The fm pair's response to h is about 200 * h per qubit.
        system = QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])
        direction = QubitSystem(delta=[0.0, 0.0], h=[1e308, 1e308], J=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="path response overflows"):
            path_response(system, direction)

    def test_degenerate_ground_raises(self):
        system = QubitSystem(delta=[1.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        direction = QubitSystem(delta=[0.0, 0.0], h=[1.0, 0.0], J=np.zeros((2, 2)))
        with pytest.raises(DegenerateGroundError):
            path_response(system, direction)
