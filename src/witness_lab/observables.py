"""Ground-state spin expectations and their exact first-order responses.

Two responses of ``<sz_i>`` come from first-order perturbation theory: the
cross-susceptibility ``chi_ij = d<sz_i>/dh_j`` (``ground_response``) and the
path response ``d<sz_i>/dlambda`` under ``H + lambda V``, with ``V`` the
Hamiltonian of a path direction (``path_response``). ``_solve`` is the one
place that picks the solver from the dimension:

* below ``KRYLOV_MIN_DIM``, one dense eigendecomposition and the sums over
  excited states, ``chi_ij = sum_{k>0} 2 <0|sz_i|k><k|sz_j|0> / (E_k - E_0)``
  and ``d<sz_i>/dlambda = -2 sum_{k>0} <0|sz_i|k><k|V|0> / (E_k - E_0)``;
* at and above it, the matrix-free linear-response solves in ``krylov``,
  with the dense route as the fallback whenever a Krylov solve does not
  converge.

Both pass the degeneracy gate of ``spectrum`` first instead of returning a
divergent number. Central finite differences, an independent check of
either route, live in the test suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .krylov import (
    KRYLOV_MIN_DIM,
    hamiltonian_operator,
    krylov_ground_state,
    krylov_path_response,
    krylov_susceptibility,
)
from .model import AffinePath, QubitSystem, build_hamiltonian, sigma_z_table
from .spectrum import GroundState, Spectrum, diagonalize, ground_state

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


def _sum_over_states(
    spec: Spectrum, deg_tol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gated ground vector ``v0``, the ``(n, dim - 1)`` matrix elements
    ``<0|sz_i|k>`` over the excited states ``k`` and their gaps
    ``E_k - E_0``: the terms of every sum over states."""
    v0 = ground_state(spec, deg_tol).vector
    gaps = spec.energies[1:] - spec.energies[0]
    excited = spec.states[:, 1:]
    signs = sigma_z_table(_qubit_count(spec.dim))
    overlaps = np.vstack([(row * v0) @ excited for row in signs])
    return v0, overlaps, gaps


def cross_susceptibility_matrix(
    spec: Spectrum, deg_tol: float | None = None
) -> np.ndarray:
    """Full ``n x n`` sum-over-states susceptibility matrix of the gated
    ground state.

    Bitwise symmetric by construction. Raises ``DegenerateGroundError``
    through ``ground_state`` when the ground level is degenerate.
    """
    _, overlaps, gaps = _sum_over_states(spec, deg_tol)
    half = (overlaps / gaps) @ overlaps.T
    return half + half.T


def _solve(
    system: QubitSystem, deg_tol: float | None, krylov_part: Callable, dense_part: Callable
) -> tuple[GroundState, object]:
    """The gated ground state and ``krylov_part(ground)`` from Lanczos at
    dimension ``KRYLOV_MIN_DIM`` and above; ``dense_part(spectrum)`` of one
    dense eigendecomposition below it or when a Krylov step returns ``None``."""
    if system.dim >= KRYLOV_MIN_DIM:
        ground = krylov_ground_state(system, deg_tol)
        part = None if ground is None else krylov_part(ground)
        if part is not None:
            return ground, part
    spec = diagonalize(build_hamiltonian(system))
    return ground_state(spec, deg_tol), dense_part(spec)


def solve_ground_state(
    system: QubitSystem, deg_tol: float | None = None
) -> GroundState:
    """Gated ground state of ``system`` without its excited states, from
    the route ``_solve`` selects; ``GroundState.route`` records which ran."""
    return _solve(system, deg_tol, lambda ground: ground, lambda spec: None)[0]


def ground_response(
    system: QubitSystem, deg_tol: float | None = None
) -> tuple[GroundState, np.ndarray]:
    """Gated ground state and full ``n x n`` susceptibility matrix, from the
    route ``_solve`` selects; ``GroundState.route`` records which ran."""
    return _solve(
        system,
        deg_tol,
        lambda ground: krylov_susceptibility(system, ground),
        lambda spec: cross_susceptibility_matrix(spec, deg_tol),
    )


def path_response(
    system: QubitSystem, direction: QubitSystem, deg_tol: float | None = None
) -> np.ndarray:
    """Exact ``d<sz_i>/dlambda`` of the gated ground state of ``system`` under
    ``H + lambda V``, ``V`` the Hamiltonian of ``direction``.

    ``H`` is linear in its coefficients, so ``V|0>`` is one matvec. It is
    taken for ``direction`` scaled to unit largest coefficient and the
    result scaled back, so no intermediate overflows; ``ValueError`` when
    the result does not fit in a float.
    """
    d, scale = direction, direction.coefficient_scale or 1.0
    apply_v = hamiltonian_operator(
        QubitSystem(delta=d.delta / scale, h=d.h / scale, J=d.J / scale)
    )

    def dense_part(spec: Spectrum) -> np.ndarray:
        v0, overlaps, gaps = _sum_over_states(spec, deg_tol)
        return -2.0 * (overlaps / gaps) @ (spec.states[:, 1:].T @ apply_v(v0))

    _, unit = _solve(
        system,
        deg_tol,
        lambda ground: krylov_path_response(system, ground, apply_v(ground.vector)),
        dense_part,
    )
    with np.errstate(over="ignore"):
        response = scale * unit
    if not np.isfinite(response).all():
        raise ValueError(
            "the path response overflows; the direction's coefficients are too large"
        )
    return response


def ground_sz_on_path(
    path: AffinePath, lam: float, deg_tol: float | None = None
) -> np.ndarray:
    """Ground-state ``<sz_i>`` profile of the path's system at ``lam``."""
    return sigma_z_profile(solve_ground_state(path.at(lam), deg_tol).vector)
