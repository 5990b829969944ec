"""Ground-state spin expectations and the cross-susceptibility matrix.

The cross-susceptibility ``chi_ij = d<sz_i>/dh_j`` has one route per
solver, and ``ground_response`` picks the solver from the dimension:

* below ``KRYLOV_MIN_DIM``, one dense eigendecomposition and the sum over
  excited states, ``chi_ij = sum_{k>0} 2 <0|sz_i|k><k|sz_j|0> / (E_k - E_0)``
  (both orderings of the matrix elements coincide for real eigenvectors),
  in ``cross_susceptibility_matrix``;
* at and above it, the matrix-free linear-response solve in ``krylov``, with
  the dense route as the fallback whenever a Krylov solve does not converge.

Both pass the degeneracy gate of ``spectrum`` first instead of returning a
divergent number. The central finite difference of ``<sz_i>`` under a
displaced bias ``h_j``, an independent check of either route, lives in the
test suite.
"""

from __future__ import annotations

import numpy as np

from .krylov import KRYLOV_MIN_DIM, krylov_ground_state, krylov_susceptibility
from .model import AffinePath, QubitSystem, build_hamiltonian, sigma_z_table
from .spectrum import (
    GroundState,
    Spectrum,
    diagonalize,
    ground_state,
    require_positive_finite,
)

NORM_TOL = 1e-9


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def _check_normalized(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return state


def sigma_z_expectation(state: np.ndarray, i: int) -> float:
    """``<state|sz_i|state>`` for a normalized real state vector."""
    state = _check_normalized(state)
    n = _qubit_count(state.size)
    if not 0 <= i < n:
        raise ValueError(f"qubit index {i} out of range for n={n}")
    return float(np.dot(sigma_z_table(n)[i] * state, state))


def sigma_z_profile(state: np.ndarray) -> np.ndarray:
    """``<sz_i>`` for every qubit; entry ``i`` is exactly
    ``sigma_z_expectation(state, i)``."""
    state = _check_normalized(state)
    signs = sigma_z_table(_qubit_count(state.size))
    return np.array([float(np.dot(row * state, state)) for row in signs])


def cross_susceptibility_matrix(
    spec: Spectrum, deg_tol: float | None = None
) -> np.ndarray:
    """Full ``n x n`` sum-over-states susceptibility matrix of the gated
    ground state.

    Bitwise symmetric by construction. Raises ``DegenerateGroundError``
    through ``ground_state`` when the ground level is degenerate.
    """
    n = _qubit_count(spec.dim)
    v0 = ground_state(spec, deg_tol).vector
    gaps = spec.energies[1:] - spec.energies[0]
    excited = spec.states[:, 1:]
    overlaps = np.vstack([(row * v0) @ excited for row in sigma_z_table(n)])
    half = (overlaps / gaps) @ overlaps.T
    return half + half.T


def solve_ground_state(
    system: QubitSystem, deg_tol: float | None = None
) -> GroundState:
    """Gated ground state of ``system`` without its excited states.

    Lanczos at dimension ``KRYLOV_MIN_DIM`` and above, the dense
    eigendecomposition below it or when Lanczos does not converge;
    ``GroundState.route`` records which ran.
    """
    if system.dim >= KRYLOV_MIN_DIM:
        ground = krylov_ground_state(system, deg_tol)
        if ground is not None:
            return ground
    return ground_state(diagonalize(build_hamiltonian(system)), deg_tol)


def ground_response(
    system: QubitSystem, deg_tol: float | None = None
) -> tuple[GroundState, np.ndarray]:
    """Gated ground state and full ``n x n`` susceptibility matrix.

    At dimension ``KRYLOV_MIN_DIM`` and above both come from the Krylov
    route; below it, or when a Krylov solve does not converge, both come
    from one dense eigendecomposition. ``GroundState.route`` records which
    ran. Raises ``DegenerateGroundError`` on either route.
    """
    if system.dim >= KRYLOV_MIN_DIM:
        ground = krylov_ground_state(system, deg_tol)
        chi = None if ground is None else krylov_susceptibility(system, ground)
        if chi is not None:
            return ground, chi
    spec = diagonalize(build_hamiltonian(system))
    return ground_state(spec, deg_tol), cross_susceptibility_matrix(spec, deg_tol)


def default_fd_step(system: QubitSystem) -> float:
    """Central-difference step: 1e-4 of the dominant coefficient scale.

    Balances truncation against round-off cancellation for double-precision
    expectation values.
    """
    return 1e-4 * max(1.0, system.coefficient_scale)


def resolve_fd_step(step: float | None, system: QubitSystem) -> float:
    """``default_fd_step(system)`` for ``None``; an explicit step must be
    positive and finite."""
    if step is None:
        return default_fd_step(system)
    return require_positive_finite("fd_step", step)


def ground_sz_on_path(
    path: AffinePath, lam: float, deg_tol: float | None = None
) -> np.ndarray:
    """Ground-state ``<sz_i>`` profile of the path's system at ``lam``."""
    return sigma_z_profile(solve_ground_state(path.at(lam), deg_tol).vector)
