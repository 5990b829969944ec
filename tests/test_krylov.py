"""The matrix-free Krylov route against the dense oracle.

Every comparison uses a dense eigendecomposition at n = 10 or 11, where it
is still affordable, as the reference.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import random_couplings

import witness_lab.krylov as krylov
import witness_lab.observables as observables
from witness_lab import (
    AffinePath,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    cross_susceptibility_matrix,
    diagonalize,
    ground_response,
    ground_state,
    ground_sz_on_path,
    sigma_z_profile,
    solve_witness_report,
    witness_lambda,
    witness_report,
)
from witness_lab.cli import main
from witness_lab.model import hamiltonian_diagonal
from witness_lab.observables import path_response


def random_all_to_all(n, seed):
    rng = np.random.default_rng(seed)
    return QubitSystem(
        delta=rng.uniform(0.5, 1.5, n),
        h=rng.uniform(-0.3, 0.3, n),
        J=random_couplings(rng, n),
    )


def fm_chain(n, delta, h=0.0):
    J = np.zeros((n, n))
    for i in range(n - 1):
        J[i, i + 1] = J[i + 1, i] = -1.0
    return QubitSystem(delta=np.full(n, delta), h=np.full(n, h), J=J)


def with_delta(system, i, value):
    delta = np.array(system.delta)
    delta[i] = value
    return QubitSystem(delta=delta, h=system.h, J=system.J)


def system_document(system):
    n = system.n
    return {
        "system": {
            "n": n,
            "delta": [float(v) for v in system.delta],
            "h": [float(v) for v in system.h],
            "couplings": [
                [i, j, float(system.J[i, j])]
                for i in range(n)
                for j in range(i + 1, n)
                if system.J[i, j] != 0.0
            ],
        }
    }


def witness_exit_code(tmp_path, system):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(system_document(system)))
    return main(["witness", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])


def dense_exit_code(system):
    try:
        witness_report(diagonalize(build_hamiltonian(system)), system)
    except DegenerateGroundError:
        return 3
    return 0


class TestOperator:
    def test_diagonal_is_bitwise_the_dense_diagonal(self):
        system = random_all_to_all(6, 1)
        assert np.array_equal(
            hamiltonian_diagonal(system), np.diagonal(build_hamiltonian(system))
        )

    def test_matches_dense_product_on_vectors_and_blocks(self):
        system = with_delta(random_all_to_all(7, 2), 3, 0.0)
        H = build_hamiltonian(system)
        apply_h = krylov.hamiltonian_operator(system)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(system.dim)
        block = rng.standard_normal((system.dim, 4))
        assert np.allclose(apply_h(v), H @ v, rtol=0.0, atol=1e-13)
        assert np.allclose(apply_h(block), H @ block, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n, seed", [(10, 10), (11, 11)])
def test_random_all_to_all_agrees_with_dense(n, seed):
    system = random_all_to_all(n, seed)
    spec = diagonalize(build_hamiltonian(system))
    dense = witness_report(spec, system)
    dense_ground = ground_state(spec)

    ground, chi = ground_response(system)
    assert ground.route == "krylov"
    assert abs(ground.energy - dense_ground.energy) <= 1e-12
    assert abs(ground.gap - dense_ground.gap) <= 1e-12
    assert np.max(np.abs(chi - cross_susceptibility_matrix(spec))) <= 1e-10
    assert np.array_equal(chi, chi.T)

    report = solve_witness_report(system)
    assert report.w_lambda is None
    for got, want in zip(report.cuts, dense.cuts, strict=True):
        assert got.partition == want.partition
        assert got.n_ab == want.n_ab
        assert abs(got.w_tilde - want.w_tilde) <= 1e-10
        assert abs(got.w_ab - want.w_ab) <= 1e-10
    assert abs(report.w_global - dense.w_global) <= 1e-10


def test_route_follows_dimension(monkeypatch):
    assert ground_response(random_all_to_all(9, 9))[0].route == "dense"
    # ground_sz_on_path asks _solve for the ground state alone.
    routes = []
    solve = observables._solve

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        routes.append(result[0].route)
        return result

    monkeypatch.setattr(observables, "_solve", recording)
    for n in (9, 10):
        zero = QubitSystem(delta=np.zeros(n), h=np.zeros(n), J=np.zeros((n, n)))
        path = AffinePath(base=random_all_to_all(n, 9), direction=zero)
        sz = ground_sz_on_path(path, 0.0)
        assert sz.shape == (n,) and np.abs(sz).max() <= 1.0
    assert routes == ["dense", "krylov"]


def test_zero_tunneling_qubit_gives_zero_response_column():
    # With delta_9 = 0, sz_9 is conserved: Q sz_9 |0> vanishes up to
    # rounding, and block CG must still converge on the remaining columns.
    system = with_delta(random_all_to_all(10, 5), 9, 0.0)
    spec = diagonalize(build_hamiltonian(system))
    ground, chi = ground_response(system)
    assert ground.route == "krylov"
    assert np.max(np.abs(chi - cross_susceptibility_matrix(spec))) <= 1e-10
    assert np.max(np.abs(chi[9])) <= 1e-10


def test_tunnel_splitting_below_tolerance_is_degenerate(tmp_path):
    # Zero-bias ferromagnetic chain: the two polarized states split by about
    # delta^10, far below the degeneracy tolerance.
    system = fm_chain(10, 1e-3)
    with pytest.raises(DegenerateGroundError):
        ground_state(diagonalize(build_hamiltonian(system)))
    with pytest.raises(DegenerateGroundError):
        krylov.krylov_ground_state(system)
    assert witness_exit_code(tmp_path, system) == 3


@pytest.mark.parametrize("bias", [0.0, 0.2])
def test_zero_tunneling_exit_code_matches_dense(tmp_path, bias):
    # delta_9 = 0 conserves sz_9. At zero bias a global spin flip maps one
    # sector onto the other, so the ground level is exactly twofold.
    rng = np.random.default_rng(9)
    system = QubitSystem(
        delta=np.append(rng.uniform(0.5, 1.5, 9), 0.0),
        h=np.full(10, bias),
        J=random_couplings(rng, 10),
    )
    expected = dense_exit_code(system)
    assert expected == (3 if bias == 0.0 else 0)
    assert witness_exit_code(tmp_path, system) == expected


def test_witness_csv_is_reproducible(tmp_path):
    system = random_all_to_all(10, 4)
    outputs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        assert witness_exit_code(run_dir, system) == 0
        outputs.append((run_dir / "out.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cap", ["LANCZOS_MAX_ITER", "CG_MAX_ITER"])
def test_unconverged_solve_falls_back_to_dense(monkeypatch, cap):
    system = random_all_to_all(10, 3)
    monkeypatch.setattr(krylov, cap, 2)
    spec = diagonalize(build_hamiltonian(system))
    ground, chi = ground_response(system)
    assert ground.route == "dense"
    assert np.array_equal(chi, cross_susceptibility_matrix(spec))


def test_block_cg_gives_up_on_singular_projected_operator():
    B = np.eye(6)[:, :2]
    assert krylov._block_cg(np.zeros_like, lambda V: V, np.ones(6), B) is None


def test_block_cg_deflates_dependent_right_hand_sides():
    # A duplicated column and one 1e-7 away from it: the span drops the
    # duplicate's direction, and every column must still be solved.
    rng = np.random.default_rng(12)
    dim = 30
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * np.linspace(1.0, 10.0, dim)) @ Q.T
    b1, b2, r = rng.standard_normal((3, dim))
    B = np.column_stack([b1, b1, b1 + 1e-7 * r, b2])
    B /= np.linalg.norm(B, axis=0)
    X = krylov._block_cg(lambda V: A @ V, lambda V: V, 1.0 / np.diagonal(A), B)
    assert X is not None
    assert np.max(np.abs(X - np.linalg.solve(A, B))) <= 1e-10


def test_orthonormal_span_keeps_weak_directions_and_drops_noise():
    # Singular values 1, 1e-5, 1e-10 and 1e-16 against the cut s_0 * dim *
    # eps = 4.5e-13: a plain Gram-matrix rule, which resolves only s_i / s_0
    # above sqrt(dim * eps) = 6.7e-7, would drop the 1e-10 direction too.
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((2048, 4)))
    W, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    U = krylov._orthonormal_span((Q * [1.0, 1e-5, 1e-10, 1e-16]) @ W)
    assert U.shape == (2048, 3)
    assert np.max(np.abs(U.T @ U - np.eye(3))) <= 1e-8
    strong = Q[:, :3]
    assert np.linalg.norm(strong - U @ (U.T @ strong)) <= 1e-5


def test_gap_just_above_tolerance_converges_on_krylov_route():
    # Zero-bias ferromagnetic chain with a tunnel splitting 1.1e5 times
    # below the spectral width: chi is dominated by the first excited level,
    # and the residual block is far from full rank for most iterations.
    system = fm_chain(10, 0.8)
    spec = diagonalize(build_hamiltonian(system))
    gap = spec.energies[1] - spec.energies[0]
    deg_tol = 0.9 * gap
    ground, chi = ground_response(system, deg_tol)
    assert ground.route == "krylov"
    dense = cross_susceptibility_matrix(spec, deg_tol)
    assert np.max(np.abs(chi - dense)) <= 1e-10 * np.abs(dense).max()


def test_path_profile_and_lambda_witness_agree_with_dense(monkeypatch):
    system = random_all_to_all(10, 6)
    n = system.n
    path = AffinePath(
        base=system,
        direction=QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n))),
    )
    dense_sz = sigma_z_profile(
        ground_state(diagonalize(build_hamiltonian(path.at(0.1)))).vector
    )
    assert np.max(np.abs(ground_sz_on_path(path, 0.1) - dense_sz)) <= 1e-10
    fast = witness_lambda(path, 0.1)
    monkeypatch.setattr(krylov, "LANCZOS_MAX_ITER", 2)
    dense = witness_lambda(path, 0.1)
    assert abs(fast - dense) <= 1e-10 * max(1.0, abs(dense))


@pytest.mark.parametrize("n", [10, 11])
def test_path_response_agrees_with_dense(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    system = random_all_to_all(n, 60 + n)
    direction = QubitSystem(
        delta=rng.uniform(-1, 1, n), h=rng.uniform(-1, 1, n), J=random_couplings(rng, n)
    )
    solved = []

    def recording(*args):
        result = krylov.krylov_path_response(*args)
        solved.append(result is not None)
        return result

    monkeypatch.setattr(observables, "krylov_path_response", recording)
    fast = path_response(system, direction)
    assert solved == [True]
    monkeypatch.setattr(krylov, "LANCZOS_MAX_ITER", 2)
    dense = path_response(system, direction)
    assert solved == [True]  # the dense route ran: Lanczos gave up first
    assert np.max(np.abs(fast - dense)) <= 1e-10 * np.abs(dense).max()


def test_overflowing_path_response_exits_2_without_warnings(tmp_path, capsys):
    system = random_all_to_all(10, 9)
    for bias in (1e200, 1e308):
        doc = system_document(system)
        doc["witness"] = {
            "lambda_direction": {"delta": [0.0] * 10, "h": [bias] * 10, "couplings": []}
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code = main(["witness", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error: ") and "overflows" in err
        assert "Warning" not in err
        assert out == ""


def test_oversized_coefficients_take_the_dense_route(tmp_path):
    # Lanczos squares vector entries inside norms, so coefficients above
    # MAX_COEFFICIENT go to the dense solver, which scales the matrix. The
    # ground state of s * H is that of H, and chi scales as 1 / s.
    base = random_all_to_all(10, 8)
    scale = 1e151
    large = QubitSystem(delta=scale * base.delta, h=scale * base.h, J=scale * base.J)
    ground, chi = ground_response(large)
    assert ground.route == "dense"
    reference_ground, reference_chi = ground_response(base)
    assert abs(ground.gap / scale - reference_ground.gap) <= 1e-10
    assert np.max(np.abs(chi * scale - reference_chi)) <= 1e-10
    h = np.array(base.h)
    h[0] = 1.5e308
    huge = QubitSystem(delta=base.delta, h=h, J=base.J)
    with pytest.raises(ValueError, match="spectral width .* overflows"):
        ground_response(huge)
    assert witness_exit_code(tmp_path, huge) == 2


def test_import_pulls_in_no_scipy():
    code = (
        "import sys, witness_lab; "
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
