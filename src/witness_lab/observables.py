"""Ground-state spin expectations and their exact first-order responses.

Two responses of ``<sz_i>`` come from first-order perturbation theory: the
cross-susceptibility ``chi_ij = d<sz_i>/dh_j`` and the path response
``d<sz_i>/dlambda`` under ``H + lambda V``, with ``V`` the Hamiltonian of a
path direction. ``_solve`` is the one place that picks the solver from the
dimension, and one call of it gives the gated ground state, ``chi`` and, for
a direction, the path response, all from one ground-state solve:

* below ``KRYLOV_MIN_DIM``, one dense eigendecomposition and one sum over
  excited states feeding both responses (``spectrum_response``),
  ``chi_ij = sum_{k>0} 2 <0|sz_i|k><k|sz_j|0> / (E_k - E_0)`` and
  ``d<sz_i>/dlambda = -2 sum_{k>0} <0|sz_i|k><k|V|0> / (E_k - E_0)``;
* at and above it, the matrix-free linear-response solves in ``krylov``
  around one Lanczos ground state, with the dense route as the fallback
  whenever a Krylov solve does not converge.

``ground_response``, ``path_response`` and ``ground_sz_on_path`` are thin
wrappers that ask ``_solve`` for one part each; the ``witness`` command asks
it for ``chi`` and the path response together. Every route passes the
degeneracy gate of ``spectrum`` first instead of returning a divergent
number. ``sigma_z_profile`` takes one state or a stack of them, so a sweep
computes the ``<sz_i>`` of a whole chunk of grid points in one product.
Central finite differences, an independent check of either route, live in
the test suite.
"""

from __future__ import annotations

import numpy as np

from .krylov import (
    KRYLOV_MIN_DIM,
    Operator,
    hamiltonian_operator,
    krylov_ground_state,
    krylov_path_response,
    krylov_susceptibility,
)
from .model import AffinePath, QubitSystem, build_hamiltonian, sigma_z_table
from .spectrum import GroundState, Spectrum, diagonalize, ground_state

NORM_TOL = 1e-9

Responses = tuple[GroundState, np.ndarray | None, np.ndarray | None]


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def _check_normalized(state: np.ndarray, stack: bool = False) -> np.ndarray:
    """``state`` as a float vector, or with ``stack`` a vector or a stack of
    row vectors, each of unit norm; ``ValueError`` otherwise."""
    state = np.asarray(state, dtype=float)
    if state.ndim != 1 and not (stack and state.ndim == 2):
        raise ValueError(f"state must be a vector, got shape {state.shape}")
    error = np.abs(np.linalg.norm(state, axis=-1) - 1.0)
    if np.any(error > NORM_TOL):
        raise ValueError(f"state is not normalized: |norm - 1| = {np.max(error):.3e}")
    return state


def sigma_z_profile(state: np.ndarray) -> np.ndarray:
    """``<state|sz_i|state>`` for every qubit ``i`` of a normalized real
    state vector, shape ``(n,)``, or of each row of a stack of them, shape
    ``(m, n)``: one batched vector-vector product per row of
    ``sigma_z_table``, which gives bitwise what ``np.dot`` gives per row."""
    state = _check_normalized(state, stack=True)
    signs = sigma_z_table(_qubit_count(state.shape[-1]))
    V = np.atleast_2d(state)
    profile = ((signs * V[:, None, :])[..., None, :] @ V[:, None, :, None])[..., 0, 0]
    return profile if state.ndim == 2 else profile[0]


def _unit_direction(direction: QubitSystem) -> tuple[Operator, float]:
    """``v -> V v`` for ``direction`` scaled to unit largest coefficient, and
    that scale: ``H`` is linear in its coefficients, so ``V|0>`` is one
    matvec, and no intermediate of the unit response overflows."""
    d, scale = direction, direction.coefficient_scale or 1.0
    unit = QubitSystem(delta=d.delta / scale, h=d.h / scale, J=d.J / scale)
    return hamiltonian_operator(unit), scale


def _scaled_response(unit: np.ndarray, scale: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        response = scale * unit
    if not np.isfinite(response).all():
        raise ValueError(
            "the path response overflows; the direction's coefficients are too large"
        )
    return response


def spectrum_response(
    spec: Spectrum, deg_tol: float | None = None, direction: QubitSystem | None = None
) -> Responses:
    """Gated ground state, full ``n x n`` susceptibility matrix and, for a
    ``direction``, the path response along it, from one dense spectrum.

    The matrix elements ``<0|sz_i|k>`` over the excited states ``k`` and
    their gaps ``E_k - E_0`` are computed once and feed both sums. ``chi`` is
    bitwise symmetric by construction. Raises ``DegenerateGroundError``
    through ``ground_state`` when the ground level is degenerate, and
    ``ValueError`` when the path response does not fit in a float.
    """
    ground = ground_state(spec, deg_tol)
    v0, excited = ground.vector, spec.states[:, 1:]
    signs = sigma_z_table(_qubit_count(spec.dim))
    overlaps = np.vstack([(row * v0) @ excited for row in signs])
    weighted = overlaps / (spec.energies[1:] - spec.energies[0])
    half = weighted @ overlaps.T
    chi = half + half.T
    if direction is None:
        return ground, chi, None
    apply_v, scale = _unit_direction(direction)
    unit = -2.0 * weighted @ (excited.T @ apply_v(v0))
    return ground, chi, _scaled_response(unit, scale)


def cross_susceptibility_matrix(
    spec: Spectrum, deg_tol: float | None = None
) -> np.ndarray:
    """Full ``n x n`` sum-over-states susceptibility matrix of the gated
    ground state (``spectrum_response`` without a direction)."""
    return spectrum_response(spec, deg_tol)[1]


def _krylov_parts(
    system: QubitSystem, ground: GroundState, chi: bool, direction: QubitSystem | None
) -> tuple[np.ndarray | None, np.ndarray | None] | None:
    """``chi`` (when asked for) and the path response along ``direction``
    (when given) around a Lanczos ground state: two separate CG solves, so
    ``chi`` is the same with or without a direction. ``None`` when either
    does not converge."""
    susceptibility = response = None
    if chi:
        susceptibility = krylov_susceptibility(system, ground)
        if susceptibility is None:
            return None
    if direction is not None:
        apply_v, scale = _unit_direction(direction)
        unit = krylov_path_response(system, ground, apply_v(ground.vector))
        if unit is None:
            return None
        response = _scaled_response(unit, scale)
    return susceptibility, response


def _solve(
    system: QubitSystem,
    deg_tol: float | None,
    chi: bool = True,
    direction: QubitSystem | None = None,
) -> Responses:
    """Gated ground state, ``chi`` (when ``chi``) and the path response along
    ``direction`` (when given), all from one ground-state solve.

    Lanczos and CG at dimension ``KRYLOV_MIN_DIM`` and above; one full
    dense eigendecomposition below it, or when any Krylov step returns
    ``None``, so every part of one result comes from the same route. The
    dense route always returns ``chi``, since it costs little next to its
    sum over states.
    """
    if system.dim >= KRYLOV_MIN_DIM:
        ground = krylov_ground_state(system, deg_tol)
        parts = None if ground is None else _krylov_parts(system, ground, chi, direction)
        if parts is not None:
            return ground, *parts
    return spectrum_response(diagonalize(build_hamiltonian(system)), deg_tol, direction)


def ground_response(
    system: QubitSystem, deg_tol: float | None = None
) -> tuple[GroundState, np.ndarray]:
    """Gated ground state and full ``n x n`` susceptibility matrix, from the
    route ``_solve`` selects; ``GroundState.route`` records which ran."""
    ground, chi, _ = _solve(system, deg_tol)
    return ground, chi


def path_response(
    system: QubitSystem, direction: QubitSystem, deg_tol: float | None = None
) -> np.ndarray:
    """Exact ``d<sz_i>/dlambda`` of the gated ground state of ``system`` under
    ``H + lambda V``, ``V`` the Hamiltonian of ``direction``.

    It is taken for ``direction`` scaled to unit largest coefficient and the
    result scaled back, so no intermediate overflows; ``ValueError`` when
    the result does not fit in a float.
    """
    return _solve(system, deg_tol, chi=False, direction=direction)[2]


def ground_sz_on_path(
    path: AffinePath, lam: float, deg_tol: float | None = None
) -> np.ndarray:
    """Ground-state ``<sz_i>`` profile of the path's system at ``lam``, from
    the gated ground state of the route ``_solve`` selects."""
    return sigma_z_profile(_solve(path.at(lam), deg_tol, chi=False)[0].vector)
