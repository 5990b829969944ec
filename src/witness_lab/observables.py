"""Ground-state spin expectations and cross-susceptibilities.

The cross-susceptibility ``chi_ij = d<sz_i>/dh_j`` is computed along two
independent routes that are checked against each other in the test suite:

* a sum over excited states, ``chi_ij = sum_{k>0} 2 <0|sz_i|k><k|sz_j|0> /
  (E_k - E_0)`` (both orderings of the matrix elements coincide for real
  eigenvectors), and
* a central finite difference of ``<sz_i>`` under a displaced bias ``h_j``.

Both routes refuse to evaluate near a ground-state degeneracy instead of
returning a divergent number. ``ground_response`` is the route the
``witness`` command takes: the sum over states below dimension
``KRYLOV_MIN_DIM``, the matrix-free linear-response solve in ``krylov`` at
and above it, with the dense route as the fallback whenever a Krylov solve
does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krylov import KRYLOV_MIN_DIM, krylov_ground_state, krylov_susceptibility
from .model import AffinePath, QubitSystem, build_hamiltonian, sigma_z_table
from .spectrum import (
    DegenerateGroundError,
    GroundState,
    Spectrum,
    diagonalize,
    ground_state,
    require_positive_finite,
    resolve_degeneracy_tolerance,
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


def _gated_gaps(spec: Spectrum, deg_tol: float | None) -> np.ndarray:
    """Excitation energies ``E_k - E_0`` (k > 0); raises
    ``DegenerateGroundError`` if any is within ``deg_tol``."""
    width = float(spec.energies[-1] - spec.energies[0])
    deg_tol = resolve_degeneracy_tolerance(deg_tol, width)
    gaps = spec.energies[1:] - spec.energies[0]
    if gaps.size == 0 or float(gaps.min()) <= deg_tol:
        raise DegenerateGroundError(
            "sum-over-states susceptibility undefined at a degenerate ground state"
        )
    return gaps


def _excited_overlaps(spec: Spectrum, i: int, n: int) -> np.ndarray:
    """Row of matrix elements ``<0|sz_i|k>`` over excited states k > 0."""
    v0 = spec.states[:, 0]
    return (sigma_z_table(n)[i] * v0) @ spec.states[:, 1:]


def susceptibility_sos(
    spec: Spectrum, i: int, j: int, deg_tol: float | None = None
) -> float:
    """Cross-susceptibility from the sum over excited states.

    Exactly symmetric in ``(i, j)``: the two orderings of the matrix-element
    product are accumulated together. Any excited level within ``deg_tol``
    of the ground energy aborts with ``DegenerateGroundError``.
    """
    n = _qubit_count(spec.dim)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range for n={n}")
    gaps = _gated_gaps(spec, deg_tol)
    ti = _excited_overlaps(spec, i, n)
    tj = ti if j == i else _excited_overlaps(spec, j, n)
    return float(np.sum((ti * tj + tj * ti) / gaps))


def cross_susceptibility_matrix(
    spec: Spectrum, deg_tol: float | None = None
) -> np.ndarray:
    """Full ``n x n`` susceptibility matrix from one pass over the spectrum.

    Bitwise symmetric by construction; agrees with per-pair
    ``susceptibility_sos`` to floating-point accuracy.
    """
    n = _qubit_count(spec.dim)
    gaps = _gated_gaps(spec, deg_tol)
    overlaps = np.vstack([_excited_overlaps(spec, i, n) for i in range(n)])
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


@dataclass(frozen=True, eq=False)
class ObservableRecord:
    """Ground-state ``<sz_i>`` per qubit plus the susceptibility matrix."""

    sz: np.ndarray
    chi: np.ndarray


def observable_record(spec: Spectrum, deg_tol: float | None = None) -> ObservableRecord:
    gs = ground_state(spec, deg_tol)
    return ObservableRecord(
        sz=sigma_z_profile(gs.vector),
        chi=cross_susceptibility_matrix(spec, deg_tol),
    )


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


def _ground_sz(system: QubitSystem, i: int, deg_tol: float | None) -> float:
    spec = diagonalize(build_hamiltonian(system))
    gs = ground_state(spec, deg_tol)
    return sigma_z_expectation(gs.vector, i)


def susceptibility_fd(
    system: QubitSystem,
    i: int,
    j: int,
    step: float | None = None,
    deg_tol: float | None = None,
) -> float:
    """Cross-susceptibility as a central difference of ``<sz_i>`` in ``h_j``.

    Raises ``DegenerateGroundError`` if either displaced system has a
    degenerate ground state.
    """
    n = system.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"qubit indices ({i}, {j}) out of range for n={n}")
    step = resolve_fd_step(step, system)
    plus = _ground_sz(system.with_bias(j, system.h[j] + step), i, deg_tol)
    minus = _ground_sz(system.with_bias(j, system.h[j] - step), i, deg_tol)
    return (plus - minus) / (2.0 * step)


def ground_sz_on_path(
    path: AffinePath, lam: float, deg_tol: float | None = None
) -> np.ndarray:
    """Ground-state ``<sz_i>`` profile of the path's system at ``lam``."""
    return sigma_z_profile(solve_ground_state(path.at(lam), deg_tol).vector)


def lambda_susceptibility(
    path: AffinePath,
    i: int,
    lambda0: float = 0.0,
    step: float | None = None,
    deg_tol: float | None = None,
) -> float:
    """Derivative of ``<sz_i>`` along the path, by central difference."""
    if not 0 <= i < path.n:
        raise ValueError(f"qubit index {i} out of range for n={path.n}")
    step = resolve_fd_step(step, path.at(lambda0))
    plus = ground_sz_on_path(path, lambda0 + step, deg_tol)
    minus = ground_sz_on_path(path, lambda0 - step, deg_tol)
    return float((plus[i] - minus[i]) / (2.0 * step))
