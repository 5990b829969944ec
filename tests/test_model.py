import numpy as np
import pytest
from conftest import SX, SZ, brute_hamiltonian, kron_op

from witness_lab import (
    AffinePath,
    QubitSystem,
    build_hamiltonian,
    build_hamiltonians,
)
from witness_lab.model import sigma_z_diagonal, sigma_z_table


def fm_pair():
    return QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])


def random_path(rng, n, moving=("delta", "h", "J")):
    """Random affine path whose direction is nonzero only in ``moving``."""

    def symmetric():
        J = np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
        return J + J.T

    base = QubitSystem(delta=rng.uniform(0, 1, n), h=rng.uniform(-1, 1, n), J=symmetric())
    direction = QubitSystem(
        delta=rng.uniform(-1, 1, n) * ("delta" in moving),
        h=rng.uniform(-1, 1, n) * ("h" in moving),
        J=symmetric() * ("J" in moving),
    )
    return AffinePath(base=base, direction=direction)


def transverse_term(i, n):
    """``sx_i`` as the library embeds it: ``H`` with ``delta_i = -2`` alone."""
    delta = np.zeros(n)
    delta[i] = -2.0
    return build_hamiltonian(QubitSystem(delta=delta, h=np.zeros(n), J=np.zeros((n, n))))


class TestEmbedPauli:
    """Single-qubit Paulis embedded in the 2^n space: ``sz_i`` through
    ``sigma_z_diagonal``, ``sx_i`` through the transverse term of
    ``build_hamiltonian``."""

    def test_single_qubit_z(self):
        assert np.array_equal(sigma_z_diagonal(0, 1), [1.0, -1.0])

    def test_z_on_second_qubit_is_lsb(self):
        # qubit 1 of 2 occupies the least significant bit
        assert np.array_equal(sigma_z_diagonal(1, 2), [1.0, -1.0, 1.0, -1.0])

    def test_x_on_first_qubit_flips_msb(self):
        X0 = transverse_term(0, 2)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
        assert np.array_equal(X0, expected)

    def test_matches_kron_oracle(self):
        for n in (1, 2, 3, 4):
            for i in range(n):
                assert np.array_equal(transverse_term(i, n), kron_op(SX, i, n))

    def test_entries_and_symmetry(self):
        M = transverse_term(1, 3)
        assert np.array_equal(M, M.T)
        assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}
        assert set(np.unique(sigma_z_diagonal(1, 3))) == {-1.0, 1.0}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_z_diagonal(2, 2)
        with pytest.raises(ValueError):
            sigma_z_diagonal(-1, 2)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            sigma_z_diagonal(0, 13)

    def test_sigma_z_diagonal_matches_embed(self):
        for n in (1, 2, 3):
            for i in range(n):
                assert np.array_equal(sigma_z_diagonal(i, n), np.diag(kron_op(SZ, i, n)))


class TestBuildHamiltonian:
    def test_single_transverse_term(self):
        system = QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1)))
        assert np.array_equal(
            build_hamiltonian(system), np.array([[0.0, -0.5], [-0.5, 0.0]])
        )

    def test_classical_ising_diagonal(self):
        system = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, 1.0)])
        assert np.array_equal(
            build_hamiltonian(system), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_two_qubit_derived_example(self):
        # Expected values frozen from the independent tensor-product oracle.
        system = QubitSystem.from_couplings([1.0, 1.0], [0.5, 0.0], [(0, 1, 0.3)])
        H = build_hamiltonian(system)
        assert np.array_equal(np.diag(H), np.array([-0.2, -0.8, 0.2, 0.8]))
        off = H - np.diag(np.diag(H))
        pairs = [(a, b) for a in range(4) for b in range(4) if off[a, b] != 0.0]
        assert sorted(pairs) == [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
        assert np.all(off[off != 0.0] == -0.5)
        oracle = brute_hamiltonian([1.0, 1.0], [0.5, 0.0], system.J)
        assert np.array_equal(H, oracle)

    def test_exactly_equals_pauli_term_sum(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            J = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    J[i, j] = J[j, i] = rng.uniform(-1, 1)
            system = QubitSystem(
                delta=rng.uniform(-1, 1, n), h=rng.uniform(-1, 1, n), J=J
            )
            oracle = brute_hamiltonian(system.delta, system.h, system.J)
            assert np.array_equal(build_hamiltonian(system), oracle)

    def test_symmetry_sparsity_trace(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            J = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    J[i, j] = J[j, i] = rng.uniform(-1, 1)
            system = QubitSystem(
                delta=rng.uniform(-1, 1, n), h=rng.uniform(-1, 1, n), J=J
            )
            H = build_hamiltonian(system)
            assert np.array_equal(H, H.T)
            off_nonzero = np.count_nonzero(H - np.diag(np.diag(H)))
            assert off_nonzero <= n * (1 << n)
            # every term is traceless, so the sum is too
            assert abs(np.trace(H)) < 1e-12

    def test_overflowing_diagonal_rejected(self):
        # Finite coefficients whose sum -h_0 s_0 + J_01 s_0 s_1 reaches
        # -2e308 at s = (+1, -1): no built matrix is ever non-finite.
        system = QubitSystem.from_couplings([0.2, 0.2], [1e308, 0.0], [(0, 1, 1e308)])
        path = AffinePath(base=fm_pair(), direction=system)
        for build in (
            lambda: build_hamiltonian(system),
            lambda: build_hamiltonians(*path.coefficients([0.0, 1.0])),
        ):
            with pytest.raises(ValueError, match="^matrix must contain only finite values$"):
                build()
        assert np.isfinite(build_hamiltonians(*path.coefficients([0.0, 0.5]))).all()


class TestQubitSystemInvariants:
    def test_rejects_asymmetric_coupling(self):
        J = np.array([[0.0, 0.3], [0.2, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QubitSystem(delta=[1.0, 1.0], h=[0.0, 0.0], J=J)

    def test_rejects_diagonal_coupling(self):
        J = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            QubitSystem(delta=[1.0, 1.0], h=[0.0, 0.0], J=J)

    def test_rejects_bad_sizes_and_nonfinite(self):
        with pytest.raises(ValueError):
            QubitSystem(delta=[1.0, 1.0], h=[0.0], J=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            QubitSystem(delta=[np.inf], h=[0.0], J=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            QubitSystem(delta=[], h=[], J=np.zeros((0, 0)))
        with pytest.raises(ValueError):
            QubitSystem(delta=np.ones(13), h=np.zeros(13), J=np.zeros((13, 13)))

    def test_from_couplings_symmetrizes(self):
        system = QubitSystem.from_couplings([1.0, 1.0, 1.0], [0.0] * 3, [(0, 2, 0.7)])
        assert system.J[0, 2] == system.J[2, 0] == 0.7
        assert system.J[0, 1] == 0.0

    def test_from_couplings_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            QubitSystem.from_couplings(
                [1.0, 1.0], [0.0, 0.0], [(0, 1, 0.2), (0, 1, 0.3)]
            )

    def test_from_couplings_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            QubitSystem.from_couplings([1.0, 1.0], [0.0, 0.0], [(1, 0, 0.2)])
        with pytest.raises(ValueError):
            QubitSystem.from_couplings([1.0, 1.0], [0.0, 0.0], [(0, 2, 0.2)])
        with pytest.raises(ValueError):
            QubitSystem.from_couplings([1.0, 1.0], [0.0, 0.0], [(0, 0, 0.2)])

    def test_arrays_are_read_only(self):
        system = fm_pair()
        with pytest.raises(ValueError):
            system.delta[0] = 5.0
        with pytest.raises(ValueError):
            system.J[0, 1] = 5.0



class TestAffinePath:
    def test_at_combines_coefficients(self):
        base = fm_pair()
        direction = QubitSystem(delta=[0.0, 0.0], h=[1.0, 2.0], J=np.zeros((2, 2)))
        path = AffinePath(base=base, direction=direction)
        moved = path.at(0.5)
        assert np.allclose(moved.h, [0.5, 1.0])
        assert np.array_equal(moved.delta, base.delta)
        assert np.array_equal(moved.J, base.J)

    def test_size_mismatch_rejected(self):
        base = fm_pair()
        direction = QubitSystem(delta=[0.0], h=[1.0], J=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="qubits"):
            AffinePath(base=base, direction=direction)

    def test_invalid_path_output_rejected(self):
        base = fm_pair()
        direction = QubitSystem(delta=[0.0, 0.0], h=[1.0, 0.0], J=np.zeros((2, 2)))
        path = AffinePath(base=base, direction=direction)
        with pytest.raises(ValueError):
            path.at(np.inf)


class TestGridCoefficients:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_batched_hamiltonians_equal_per_point_builds(self, n):
        rng = np.random.default_rng(300 + n)
        grid = np.concatenate([rng.uniform(-3, 3, 3), [0.0, 1.0]])
        for moving in (("delta",), ("h",), ("J",), ("delta", "h", "J")):
            path = random_path(rng, n, moving)
            delta, h, J = path.coefficients(grid)
            batch = build_hamiltonians(delta, h, J)
            assert batch.shape == (grid.size, 1 << n, 1 << n)
            for k, lam in enumerate(grid):
                system = path.at(lam)
                # tobytes also tells apart the signs of zeros
                assert delta[k].tobytes() == system.delta.tobytes()
                assert h[k].tobytes() == system.h.tobytes()
                assert J[k].tobytes() == system.J.tobytes()
                assert batch[k].tobytes() == build_hamiltonian(system).tobytes()

    def test_nonfinite_coefficient_rejected_with_its_lambda(self):
        base = QubitSystem(delta=[0.5], h=[1e308], J=np.zeros((1, 1)))
        direction = QubitSystem(delta=[0.0], h=[1e308], J=np.zeros((1, 1)))
        path = AffinePath(base=base, direction=direction)
        path.coefficients([-1.0, 0.0])
        with pytest.raises(ValueError, match="lambda=1.0"):
            path.coefficients([-1.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="lambda=inf"):
            path.coefficients([0.0, np.inf])

    def test_sigma_z_table_is_cached_and_read_only(self):
        for n in (1, 3, 6):
            table = sigma_z_table(n)
            assert table is sigma_z_table(n)
            assert not table.flags.writeable
            for i in range(n):
                assert np.array_equal(table[i], sigma_z_diagonal(i, n))
        with pytest.raises(ValueError):
            sigma_z_table(13)
