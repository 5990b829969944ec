"""Matrix-free ground state and linear-response susceptibilities.

``H`` has ``n + 1`` nonzeros per row, its diagonal (biases and couplings) and
one bit flip per qubit, so it is applied without being stored::

    (H v)[b] = diag[b] v[b] - 1/2 sum_i delta_i v[b ^ bit_i]

* ``krylov_ground_state``: Lanczos with full reorthogonalization from a
  fixed-seed random start gives ``E_0``, its vector and ``E_max``; a second
  run kept orthogonal to that vector gives ``E_1``. One Krylov space holds a
  single vector per (nearly) degenerate level, so ``E_1`` cannot come from
  the first run. The gap passes the same gate as the dense route.
* ``krylov_susceptibility``: the correction-vector form of the
  sum-over-states susceptibility (Soos & Ramasesha 1989),
  ``chi_ij = 2 <0|sz_i|x_j>`` with ``(H - E_0) x_j = Q sz_j |0>`` solved on
  the complement of the ground state, all ``j`` at once, by breakdown-free
  block conjugate gradients (Ji & Li 2017).

Both return ``None`` when an iteration cap is reached or a true-residual
check fails, and callers fall back to the dense route: an unconverged result
is never returned. So does ``krylov_ground_state`` for coefficients too large
for the vector norms Lanczos takes; the dense solver scales such matrices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import QubitSystem, hamiltonian_diagonal, sigma_z_table
from .spectrum import GroundState, gate_ground

KRYLOV_MIN_DIM = 1024  # below this dimension a dense eigh is faster

START_SEED = 2013
LANCZOS_MAX_ITER = 300
LANCZOS_CHECK_EVERY = 5  # Lanczos steps between Ritz convergence checks
LANCZOS_RTOL = 1e-12  # eigen-residual relative to max(1, ||H||)
MAX_COEFFICIENT = 1e150  # keeps ||H v|| well below sqrt(float max), where norms overflow
CG_MAX_ITER = 400
CG_RTOL = 1e-12  # residual of every system relative to its right-hand side
TRUE_RESIDUAL_SLACK = 100.0  # recomputed residuals may exceed the tolerance this much

Operator = Callable[[np.ndarray], np.ndarray]


def hamiltonian_operator(system: QubitSystem) -> Operator:
    """Matrix-free ``v -> H v`` for a vector or a ``(dim, k)`` block of
    columns; equal to ``build_hamiltonian(system) @ v`` up to summation
    order."""
    diag = hamiltonian_diagonal(system)
    # Qubit i is bit n-1-i of the index, so after reshaping to
    # (2^i, 2, rest) the middle axis is that bit and reversing it flips it.
    flips = [
        (1 << i, -0.5 * float(d)) for i, d in enumerate(system.delta) if d != 0.0
    ]

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v)
        out = (diag if v.ndim == 1 else diag[:, None]) * v
        for lead, coef in flips:
            view = out.reshape(lead, 2, -1)
            view += coef * v.reshape(lead, 2, -1)[:, ::-1]
        return out

    return apply


def _lanczos(
    apply_h: Operator, start: np.ndarray, locked: np.ndarray | None
) -> tuple[float, np.ndarray, float] | None:
    """Lowest Ritz pair and highest Ritz value of ``H`` on the orthogonal
    complement of ``locked`` (the whole space when ``None``).

    Full reorthogonalization (two classical Gram-Schmidt passes per step)
    keeps the basis orthonormal, so no spurious copies of converged levels
    appear. Convergence is judged on the Ritz residual ``beta_m |y_m|`` and
    confirmed by the true residual of the returned vector.
    """
    dim = start.size
    basis = np.empty((min(LANCZOS_MAX_ITER, dim), dim))
    alpha = np.zeros(basis.shape[0])
    beta = np.zeros(basis.shape[0])
    q = start
    if locked is not None:
        q = q - locked * (locked @ q)
    q = q / np.linalg.norm(q)
    for m in range(basis.shape[0]):
        basis[m] = q
        block = basis[: m + 1]
        w = apply_h(q)
        for _ in range(2):
            coeff = block @ w
            w -= coeff @ block
            if locked is not None:
                w -= locked * (locked @ w)
            alpha[m] += coeff[m]
        beta[m] = np.linalg.norm(w)
        last = m + 1 == basis.shape[0]
        if (m + 1) % LANCZOS_CHECK_EVERY and beta[m] > LANCZOS_RTOL and not last:
            q = w / beta[m]
            continue
        T = np.diag(alpha[: m + 1]) + np.diag(beta[:m], 1) + np.diag(beta[:m], -1)
        theta, y = np.linalg.eigh(T)
        tol = LANCZOS_RTOL * max(1.0, abs(theta[0]), abs(theta[-1]))
        if beta[m] * abs(y[-1, 0]) <= tol:
            vector = y[:, 0] @ block
            vector /= np.linalg.norm(vector)
            residual = apply_h(vector) - theta[0] * vector
            if locked is not None:
                residual -= locked * (locked @ residual)
            if np.linalg.norm(residual) > TRUE_RESIDUAL_SLACK * tol:
                return None
            return float(theta[0]), vector, float(theta[-1])
        q = w / beta[m]
    return None


def krylov_ground_state(
    system: QubitSystem, deg_tol: float | None = None
) -> GroundState | None:
    """Gated ground state from two Lanczos runs, or ``None`` if either run
    does not converge or a coefficient exceeds ``MAX_COEFFICIENT``.

    Raises ``DegenerateGroundError`` exactly as ``ground_state`` does, with
    the default tolerance taken from the Lanczos estimate of the spectral
    width.
    """
    if system.coefficient_scale > MAX_COEFFICIENT:
        return None
    apply_h = hamiltonian_operator(system)
    rng = np.random.default_rng(START_SEED)
    lowest = _lanczos(apply_h, rng.standard_normal(system.dim), None)
    if lowest is None:
        return None
    e0, v0, e_max = lowest
    excited = _lanczos(apply_h, rng.standard_normal(system.dim), v0)
    if excited is None:
        return None
    e1 = excited[0]
    v0.setflags(write=False)
    return gate_ground(
        energy=e0, vector=v0, excited=e1, top=e_max, deg_tol=deg_tol, route="krylov"
    )


def _orthonormal_span(Z: np.ndarray) -> np.ndarray:
    # Rank-revealing orthonormalization: dropping numerically dependent
    # directions is what keeps block CG from breaking down when right-hand
    # sides are (nearly) linearly dependent or already solved.
    U, s, _ = np.linalg.svd(Z, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return U[:, :0]
    return U[:, s > s[0] * Z.shape[0] * np.finfo(float).eps]


def _block_cg(
    apply_a: Operator, project: Operator, B: np.ndarray
) -> np.ndarray | None:
    """Solve ``A X = B`` for unit columns of ``B`` in the range of
    ``project``, on which ``A`` is symmetric positive definite; ``None`` if
    the iteration cap is reached or ``P^T A P`` turns out singular first.

    Search directions are projected before they are orthonormalized: once
    the residual is small, rounding noise dominates the weakest directions,
    and any null-space component left in them would make ``P^T A P``
    singular.
    """
    X = np.zeros_like(B)
    R = B.copy()
    P = _orthonormal_span(R)
    for _ in range(CG_MAX_ITER):
        if P.shape[1] == 0 or np.linalg.norm(R, axis=0).max() <= CG_RTOL:
            break
        AP = apply_a(P)
        PAP = P.T @ AP
        try:
            alpha = np.linalg.solve(PAP, P.T @ R)
        except np.linalg.LinAlgError:
            return None
        X += P @ alpha
        R -= AP @ alpha
        beta = -np.linalg.solve(PAP, AP.T @ R)  # same PAP: cannot be singular here
        P = _orthonormal_span(project(R + P @ beta))
    else:
        return None
    true_residual = np.linalg.norm(B - apply_a(X), axis=0).max()
    if true_residual > TRUE_RESIDUAL_SLACK * CG_RTOL:
        return None
    return X


def krylov_susceptibility(
    system: QubitSystem, ground: GroundState
) -> np.ndarray | None:
    """Full ``n x n`` susceptibility matrix by linear response around a
    gated ground state, or ``None`` if block CG does not converge.

    Bitwise symmetric by construction, like ``cross_susceptibility_matrix``.
    """
    v0 = ground.vector
    apply_h = hamiltonian_operator(system)

    def project(V: np.ndarray) -> np.ndarray:
        return V - np.outer(v0, v0 @ V)

    def apply_a(V: np.ndarray) -> np.ndarray:
        return project(apply_h(V) - ground.energy * V)

    signs = sigma_z_table(system.n).T.copy()  # C order keeps the products' layout
    B = project(signs * v0[:, None])
    norms = np.linalg.norm(B, axis=0)
    active = norms > 0.0
    X = np.zeros_like(B)
    if active.any():
        # Project again after scaling: a column that is almost parallel to
        # v0 before projection keeps a relatively large v0 component, which
        # A maps to zero and CG could never remove.
        solved = _block_cg(apply_a, project, project(B[:, active] / norms[active]))
        if solved is None:
            return None
        X[:, active] = solved * norms[active]
    half = B.T @ X
    return half + half.T
