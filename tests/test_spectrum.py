import numpy as np
import pytest
from conftest import brute_ground

from witness_lab import (
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    diagonalize,
    ground_state,
)
from witness_lab.spectrum import resolve_degeneracy_tolerance


def random_symmetric(rng, dim):
    A = rng.normal(size=(dim, dim))
    return A + A.T


class TestDiagonalize:
    def test_already_diagonal(self):
        spec = diagonalize(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(spec.energies, [1.0, 2.0, 3.0])
        # permuted unit eigenvectors
        assert np.array_equal(np.abs(spec.states), np.eye(3)[:, [1, 2, 0]])

    def test_single_qubit_transverse(self):
        H = build_hamiltonian(QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1))))
        spec = diagonalize(H)
        assert np.allclose(spec.energies, [-0.5, 0.5])

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(2)
        H = random_symmetric(rng, 16)
        spec = diagonalize(H)
        scale = max(1.0, np.linalg.norm(H))
        for k in range(16):
            residual = np.linalg.norm(H @ spec.states[:, k] - spec.energies[k] * spec.states[:, k])
            assert residual <= 1e-10 * scale
        gram = spec.states.T @ spec.states
        assert np.abs(gram - np.eye(16)).max() <= 1e-10

    def test_completeness_and_trace(self):
        rng = np.random.default_rng(3)
        H = random_symmetric(rng, 12)
        spec = diagonalize(H)
        resolution = spec.states @ spec.states.T
        assert np.abs(resolution - np.eye(12)).max() <= 1e-9
        assert abs(spec.energies.sum() - np.trace(H)) <= 1e-9 * max(1.0, np.linalg.norm(H))

    def test_ascending_order(self):
        rng = np.random.default_rng(4)
        spec = diagonalize(random_symmetric(rng, 20))
        assert np.all(np.diff(spec.energies) >= 0.0)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(5)
        H = random_symmetric(rng, 10)
        a = diagonalize(H)
        b = diagonalize(H.copy())
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)
        lead = np.argmax(np.abs(a.states), axis=0)
        assert np.all(a.states[lead, np.arange(10)] > 0.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized_and_nonfinite(self):
        with pytest.raises(ValueError, match="cap"):
            diagonalize(np.zeros((4097, 4097)))
        with pytest.raises(ValueError):
            diagonalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestGroundState:
    def test_classical_double_degeneracy(self):
        system = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, 1.0)])
        spec = diagonalize(build_hamiltonian(system))
        assert np.array_equal(np.sort(spec.energies), [-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(DegenerateGroundError):
            ground_state(spec)

    def test_two_level_splitting(self):
        spec = diagonalize(
            build_hamiltonian(QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1))))
        )
        gs = ground_state(spec)
        assert abs(gs.energy + 0.5) < 1e-12
        assert abs(gs.gap - 1.0) < 1e-12
        assert abs(np.linalg.norm(gs.vector) - 1.0) <= 1e-12

    def test_fm_pair_gap_matches_brute_force(self):
        system = QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])
        spec = diagonalize(build_hamiltonian(system))
        gs = ground_state(spec)
        oracle_E, _ = brute_ground([0.2, 0.2], [0.0, 0.0], system.J)
        assert gs.gap > 0.0
        assert abs(gs.gap - (oracle_E[1] - oracle_E[0])) < 1e-12
        # frozen from the 4x4 brute force: sqrt(1.04) - 1
        assert abs(gs.gap - 0.019803902718556898) < 1e-12

    def test_degeneracy_tolerance_is_scale_free(self):
        spec = diagonalize(np.diag([0.0, 3e-9, 10.0]))
        # width 10 -> tolerance 1e-8 swallows the 3e-9 gap
        assert resolve_degeneracy_tolerance(None, 10.0) == 1e-8
        with pytest.raises(DegenerateGroundError):
            ground_state(spec)
        # an explicit tighter tolerance accepts it
        gs = ground_state(spec, deg_tol=1e-10)
        assert gs.gap == 3e-9

    def test_rejects_nonpositive_tolerance(self):
        spec = diagonalize(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            ground_state(spec, deg_tol=0.0)
