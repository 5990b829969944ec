import json
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import brute_ground

import witness_lab.spectrum as spectrum_module
from witness_lab import (
    AffinePath,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    build_hamiltonians,
    diagonalize,
    ground_state,
    sigma_z_profile,
)
from witness_lab.spectrum import (
    eigenvalues,
    gap_gate,
    ground_gap,
    ground_states,
    prove_ground_states,
)


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
        with pytest.raises(ValueError, match="only finite values"):
            diagonalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="expected a square matrix"):
            diagonalize(np.eye(3)[None])


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
        assert gap_gate([0.0], [3e-9], [10.0], None)[1].tolist() == [1e-8]
        with pytest.raises(DegenerateGroundError):
            ground_state(spec)
        # an explicit tighter tolerance accepts it
        gs = ground_state(spec, deg_tol=1e-10)
        assert gs.gap == 3e-9

    def test_rejects_nonpositive_tolerance(self):
        spec = diagonalize(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            ground_state(spec, deg_tol=0.0)

    @pytest.mark.parametrize("deg_tol", [None, 1e-3])
    def test_array_gate_rows_match_ground_gap(self, deg_tol):
        energy = np.array([0.0, -1.0, 2.0, 5.0, -3.0])
        excited = energy + np.array([0.0, 1e-12, 2e-3, 0.5e-3, 1.0])
        top = energy + np.array([1.0, 4.0, 1e7, 2.0, 3.0])
        gaps, tols, degenerate = gap_gate(energy, excited, top, deg_tol)
        assert tols.shape == gaps.shape == degenerate.shape == (5,)
        for k in range(5):
            if degenerate[k]:
                message = f"ground gap {gaps[k]:.3e} is within degeneracy tolerance {tols[k]:.3e}"
                with pytest.raises(DegenerateGroundError, match=re.escape(message)):
                    ground_gap(energy[k], excited[k], top[k], deg_tol)
            else:
                assert ground_gap(energy[k], excited[k], top[k], deg_tol) == gaps[k]
        expected = [True, True, deg_tol is None, deg_tol is not None, False]
        assert degenerate.tolist() == expected

    def test_array_gate_names_the_first_overflowing_spectrum(self):
        energy = np.array([0.0, -1.5e308, -1.7e308])
        top = np.array([1.0, 1.5e308, 1.7e308])
        with pytest.raises(ValueError, match=r"= 1\.5e\+308 - -1\.5e\+308 overflows"):
            gap_gate(energy, energy + 0.5, top, None)


def random_path_hamiltonians(rng, n, points):
    """Hamiltonians along a random path moving delta (through zero), h and
    J, at ``points`` grid values."""

    def symmetric():
        J = np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
        return J + J.T

    base = QubitSystem(delta=rng.uniform(-1, 1, n), h=rng.uniform(-1, 1, n), J=symmetric())
    direction = QubitSystem(
        delta=rng.uniform(-0.5, 0.5, n), h=rng.uniform(-1, 1, n), J=symmetric()
    )
    path = AffinePath(base=base, direction=direction)
    return build_hamiltonians(*path.coefficients(np.linspace(-2.0, 2.0, points)))


@pytest.fixture
def count_diagonalize(monkeypatch):
    """The matrices ``ground_states`` falls back to ``diagonalize`` for; the
    tests' own ``diagonalize`` calls are not counted."""
    calls = []
    original = spectrum_module.diagonalize

    def counting(H):
        calls.append(H)
        return original(H)

    monkeypatch.setattr(spectrum_module, "diagonalize", counting)
    return calls


class TestGroundStates:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_agrees_with_diagonalize_on_random_paths(self, n, count_diagonalize):
        rng = np.random.default_rng(100 + n)
        H = random_path_hamiltonians(rng, n, 9 if n <= 7 else 3)
        energies, vectors, degenerate = ground_states(H)
        assert vectors.shape == energies.shape == H.shape[:2]
        assert degenerate.shape == (len(H),) and degenerate.dtype == bool
        for k in range(len(H)):
            spec = diagonalize(H[k])
            scale = max(1.0, np.abs(spec.energies).max())
            assert np.abs(energies[k] - spec.energies).max() <= 1e-12 * scale
            try:
                reference = ground_state(spec)
            except DegenerateGroundError:
                assert degenerate[k] and np.isnan(vectors[k]).all()
                continue
            assert not degenerate[k]
            sz = sigma_z_profile(vectors[k])
            assert np.abs(sz - sigma_z_profile(reference.vector)).max() <= 1e-10
            gap = energies[k, 1] - energies[k, 0]
            assert abs(gap - reference.gap) <= 1e-12 * scale
        assert not count_diagonalize

    def test_degenerate_flags_match_diagonalize(self, count_diagonalize):
        # A classical ferromagnetic chain under a uniform bias: degenerate at
        # lambda = 0 only; a weak transverse field splits it below deg_tol.
        for delta in (0.0, 1e-12):
            n = 4
            J = np.diag(np.full(n - 1, -1.0), 1)
            base = QubitSystem(delta=np.full(n, delta), h=np.zeros(n), J=J + J.T)
            direction = QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n)))
            path = AffinePath(base=base, direction=direction)
            H = build_hamiltonians(*path.coefficients(np.linspace(-1.0, 1.0, 5)))
            _, vectors, degenerate = ground_states(H)
            assert degenerate.tolist() == [False, False, True, False, False]
            assert np.isnan(vectors[2]).all() and np.isfinite(vectors[[0, 1, 3, 4]]).all()
            with pytest.raises(DegenerateGroundError):
                ground_state(diagonalize(H[2]))
            assert ground_states(H[2:3])[2].tolist() == [True]
        assert not count_diagonalize

    def test_biased_classical_chain_needs_no_fallback(self, count_diagonalize):
        n = 6
        J = np.diag(np.full(n - 1, -1.0), 1)
        base = QubitSystem(delta=np.zeros(n), h=np.linspace(0.1, 0.3, n), J=J + J.T)
        direction = QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n)))
        path = AffinePath(base=base, direction=direction)
        H = build_hamiltonians(*path.coefficients(np.linspace(0.5, 2.0, 16)))
        assert all(np.count_nonzero(M - np.diag(np.diag(M))) == 0 for M in H)
        energies, vectors, degenerate = ground_states(H)
        assert not count_diagonalize
        assert not degenerate.any()
        assert np.abs(sigma_z_profile(vectors) - 1.0).max() <= 1e-10
        for k, vector in enumerate(vectors):
            reference = ground_state(diagonalize(H[k]))
            assert energies[k].tobytes() == np.sort(np.diag(H[k])).tobytes()
            assert np.abs(vector - reference.vector).max() <= 1e-12

    def test_one_point_calls_equal_the_stack(self):
        rng = np.random.default_rng(7)
        H = random_path_hamiltonians(rng, 5, 7)
        energies, vectors, degenerate = ground_states(H)
        for k in range(len(H)):
            (levels,), (vector,), (flag,) = ground_states(H[k : k + 1])
            assert levels.tobytes() == energies[k].tobytes()
            assert vector.tobytes() == vectors[k].tobytes() and flag == degenerate[k]

    def test_sign_convention_and_read_only(self):
        rng = np.random.default_rng(8)
        H = random_path_hamiltonians(rng, 4, 5)
        _, vectors, _ = ground_states(H)
        assert not vectors.flags.writeable
        assert not ground_states(H[:1])[1].flags.writeable
        for vector in vectors:
            lead = np.argmax(np.abs(vector))
            assert vector[lead] > 0.0

    def test_builds_no_object_per_point(self, monkeypatch):
        # Degenerate and nondegenerate points alike: the gate is one array
        # call, so neither a GroundState nor an exception is made per point.
        made = []

        class CountingError(DegenerateGroundError):
            def __init__(self, *args):
                made.append("error")
                super().__init__(*args)

        def counting_ground_state(*args, **kwargs):
            made.append("ground")
            return original(*args, **kwargs)

        original = spectrum_module.GroundState
        monkeypatch.setattr(spectrum_module, "GroundState", counting_ground_state)
        monkeypatch.setattr(spectrum_module, "DegenerateGroundError", CountingError)
        n = 4
        J = np.diag(np.full(n - 1, -1.0), 1)
        base = QubitSystem(delta=np.zeros(n), h=np.zeros(n), J=J + J.T)
        direction = QubitSystem(delta=np.full(n, 0.2), h=np.ones(n), J=np.zeros((n, n)))
        path = AffinePath(base=base, direction=direction)
        H = build_hamiltonians(*path.coefficients(np.linspace(-1.0, 1.0, 9)))
        _, _, degenerate = ground_states(H)
        assert degenerate.tolist() == [False] * 4 + [True] + [False] * 4
        assert ground_states(H[4:5])[2].tolist() == [True]
        assert ground_states(H[:1])[2].tolist() == [False]
        assert made == []

    @pytest.mark.parametrize("failure", ["solve raises", "residual fails"])
    def test_forced_fallback_recomputes_that_point_only(
        self, monkeypatch, count_diagonalize, failure
    ):
        rng = np.random.default_rng(9)
        H = random_path_hamiltonians(rng, 4, 6)
        expected_energies, expected_vectors, expected_flags = ground_states(H)
        target = 2
        off_diagonal = H[target] - np.diag(np.diag(H[target]))
        solve = np.linalg.solve

        def is_target(A):
            return np.array_equal(A - np.diag(np.diag(A)), off_diagonal)

        def failing_solve(A, b):
            hits = [is_target(M) for M in A]
            if failure == "solve raises" and any(hits):
                raise np.linalg.LinAlgError("forced")
            x = solve(A, b)
            x[np.array(hits)] = 1.0  # not an eigenvector: the check must fail
            return x

        monkeypatch.setattr(spectrum_module.np.linalg, "solve", failing_solve)
        energies, vectors, degenerate = ground_states(H)
        assert [M.tobytes() for M in count_diagonalize] == [H[target].tobytes()]
        # Energies and flags come from the stacked eigenvalues alone; the
        # target's vector is bitwise diagonalize's.
        assert energies.tobytes() == expected_energies.tobytes()
        assert degenerate.tobytes() == expected_flags.tobytes()
        for k, vector in enumerate(vectors):
            if k == target:
                assert vector.tobytes() == diagonalize(H[k]).states[:, 0].tobytes()
            else:
                assert vector.tobytes() == expected_vectors[k].tobytes()
        (levels,), (vector,), _ = ground_states(H[target : target + 1])
        assert len(count_diagonalize) == 2
        assert levels.tobytes() == energies[target].tobytes()
        assert vector.tobytes() == vectors[target].tobytes()

    def test_overflowing_eigenvalues_raise_as_in_diagonalize(self):
        # Finite and symmetric, but the levels are about +-2.4e308.
        M = np.diag([-1.7e308, 1.7e308]) + np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
        with pytest.raises(ValueError) as full:
            diagonalize(M)
        for solver in (eigenvalues, ground_states):
            with pytest.raises(ValueError, match=str(full.value)):
                solver(np.stack([np.eye(2), M]))

    def test_width_overflow_raises(self):
        with pytest.raises(ValueError, match="spectral width .* overflows"):
            ground_states(np.diag([-1.5e308, 1.5e308])[None])


def planted_spectrum(rng, dim, gap):
    """``Q diag(E) Q^T`` for a random orthogonal ``Q``, ``E_0 = 0``, ``E_1 =
    gap`` and the other levels in [1, 3], and the exact ground vector."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    E = np.concatenate([[0.0, gap], rng.uniform(1.0, 3.0, dim - 2)])
    H = (Q * E) @ Q.T
    return (H + H.T) / 2, Q[:, 0]


class TestProveGroundStates:
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_gap_below_the_tolerance_is_refused(self, dim):
        rng = np.random.default_rng(dim)
        tau = 1e-6
        for gap in (0.0, 0.5 * tau, tau * (1 - 1e-3), tau):
            H, v0 = planted_spectrum(rng, dim, gap)
            vectors, proven = prove_ground_states(H[None], v0, deg_tol=tau)
            assert not proven[0]
            assert np.isnan(vectors[0]).all()

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_gap_above_the_tolerance_is_proven(self, dim):
        rng = np.random.default_rng(dim)
        tau = 1e-6
        for gap in (tau * (1 + 1e-2), 2 * tau, 0.5):
            H, v0 = planted_spectrum(rng, dim, gap)
            vectors, proven = prove_ground_states(H[None], v0, deg_tol=tau)
            assert proven[0]
            assert abs(vectors[0] @ v0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_excited_eigenvector_start_is_never_proven(self, n):
        rng = np.random.default_rng(40 + n)
        H = random_path_hamiltonians(rng, n, 5)
        for k in range(len(H)):
            states = diagonalize(H[k]).states
            for level in range(1, min(states.shape[1], 6)):
                _, proven = prove_ground_states(H[k : k + 1], states[:, level])
                assert not proven[0]

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("deg_tol", [None, 1e-3])
    def test_proven_points_pass_the_gate(self, n, deg_tol):
        # Warm starts from the previous grid point, as a sweep makes them:
        # every proven point is nondegenerate for ground_states, and its
        # vector is ground_states' vector to rounding, sign included.
        rng = np.random.default_rng(50 + n)
        H = random_path_hamiltonians(rng, n, 41)
        energies, reference, degenerate = ground_states(H, deg_tol)
        start = diagonalize(H[0]).states[:, 0]
        vectors, proven = prove_ground_states(H[1:], start, deg_tol)
        assert proven.any()
        assert not degenerate[1:][proven].any()
        assert np.allclose(vectors[proven], reference[1:][proven], rtol=0, atol=1e-9)
        assert np.isnan(vectors[~proven]).all()

    def test_degenerate_ground_level_is_never_proven(self):
        # A classical chain at zero bias: all-up and all-down tie exactly.
        n = 4
        couplings = [(i, i + 1, -1.0) for i in range(n - 1)]
        system = QubitSystem.from_couplings([0.0] * n, [0.0] * n, couplings)
        H = build_hamiltonian(system)
        for start in (np.eye(1 << n)[0], np.eye(1 << n)[-1], np.ones(1 << n)):
            assert not prove_ground_states(H[None], start)[1][0]

    def test_tolerance_validated_as_the_gate_validates_it(self):
        H = np.diag([0.0, 1.0])[None]
        for deg_tol in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError) as gate:
                ground_states(H, deg_tol)
            with pytest.raises(ValueError, match=re.escape(str(gate.value))):
                prove_ground_states(H, np.ones(2), deg_tol)

    def test_overflowing_width_is_not_proven(self):
        H = np.diag([-1.5e308, 1.5e308])[None]
        assert not prove_ground_states(H, np.array([1.0, 0.0]))[1][0]


@pytest.mark.parametrize("command", ["certify", "sweep", "spectrum"])
def test_dense_commands_compute_no_eigenvectors(tmp_path, monkeypatch, command):
    from witness_lab.cli import main

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    n = 4
    doc = {
        "system": {"n": n, "delta": [0.3] * n, "h": [0.05, -0.02, 0.01, 0.0],
                   "couplings": [[i, i + 1, -1.0] for i in range(n - 1)]},
        "sweep": {"direction": {"delta": [0.0] * n, "h": [1.0] * n, "couplings": []},
                  "grid": {"start": -1.0, "stop": 1.0, "num": 41}},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert main(argv + (["--ground"] if command == "spectrum" else [])) == 0


def test_certify_loads_no_random_module_and_no_scipy(tmp_path):
    n = 3
    doc = {
        "system": {"n": n, "delta": [0.3] * n, "h": [0.0] * n,
                   "couplings": [[0, 1, -1.0], [1, 2, -1.0]]},
        "sweep": {"direction": {"delta": [0.0] * n, "h": [1.0] * n, "couplings": []},
                  "grid": {"start": -1.0, "stop": 1.0, "num": 21}},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code = (
        "import sys\n"
        "from witness_lab.cli import main\n"
        f"assert main(['certify', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o.csv')!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m == 'numpy.random' or m.split('.')[0] == 'scipy']\n"
        "sys.exit(f'loaded: {loaded}' if loaded else 0)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
