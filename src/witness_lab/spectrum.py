"""Dense symmetric eigensolvers with deterministic conventions, and the
degeneracy gate every ground-state route passes through.

``_tolerance`` resolves every degeneracy tolerance and ``_fix_signs`` makes
every eigenvector's largest-magnitude entry positive. Only ``diagonalize``,
which takes matrices from outside the library, validates its input; the
other solvers take ``model``'s Hamiltonians, valid by construction.

* ``diagonalize`` computes the full decomposition. Only the sum-over-states
  susceptibility needs it, because it sums over every excited state.
* ``eigenvalues`` computes the energies alone, for a stack of matrices: the
  ``spectrum`` command prints them and takes its gap from them.
* ``ground_states`` adds arrays to those energies, for a stack of matrices:
  the ground vectors and the ``degenerate`` mask of one ``gap_gate`` call
  over the stack. ``sweep`` uses it, and a ``sweep`` record is bitwise what
  it gives. No excited eigenvector is computed. Each ground vector comes
  from shifted inverse iteration and must pass a true-residual check; a
  point whose solve fails or whose check fails takes its vector, and only
  its vector, from ``diagonalize``, so no unverified vector is returned and
  every point is gated once, on the energies it reports.
* ``prove_ground_states`` needs no energies at all: from a warm vector it
  finds a ground vector by Rayleigh-quotient iteration and proves the gap
  above the degeneracy tolerance with one Cholesky factorization
  (rank-one interlacing). ``certify``, which prints no energies, uses it
  for every grid point it can prove and ``ground_states`` for the rest.

Routes that need only the ground state, its gap and the susceptibility
matrix at dimension 1024 and above (the ``witness`` command) use the
matrix-free Krylov solvers in ``krylov`` instead, and hand their energies to
the same gate through ``ground_gap``, its one-spectrum case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4096
SYMMETRY_RTOL = 1e-12
EIGEN_RTOL = 1e-12  # eigen-residual relative to max(1, |E_0|, |E_max|)
TRUE_RESIDUAL_SLACK = 100.0  # recomputed residuals may exceed the tolerance this much
SHIFT_RTOL = 1e-13  # inverse-iteration shift below E_0, relative like EIGEN_RTOL
INVERSE_STEPS = 2
RAYLEIGH_STEPS = 4  # most Rayleigh-quotient inverse-iteration solves of a proof
CONVERGED_RTOL = 4.0 * np.finfo(float).eps  # residual floor per sqrt(dim) * |H|
GOLDEN = 0.6180339887498949  # Weyl sequence step of the inverse-iteration start


class DegenerateGroundError(Exception):
    """Raised when the ground level is degenerate within tolerance.

    Signals that susceptibility witnesses and path certification do not
    apply at this point, rather than silently returning huge or arbitrary
    values.
    """


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order, eigenvector ``states[:, k]`` paired
    with ``energies[k]``."""

    energies: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True, eq=False)
class GroundState:
    """Gated ground state: ``gap`` exceeded the degeneracy tolerance.

    ``route`` names the solver that produced it: ``"dense"`` for a dense
    solver of this module (the full eigendecomposition or ``ground_states``),
    ``"krylov"`` for the matrix-free Lanczos solver.
    """

    energy: float
    vector: np.ndarray
    gap: float
    route: str


def diagonalize(H: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    Eigenvalues come out ascending; the global sign of each eigenvector is
    fixed by making its largest-magnitude component positive, so repeated
    calls on identical input are bit-identical. An eigenvalue beyond the
    float range raises ``ValueError``; a failed iteration inside the solver
    surfaces as ``numpy.linalg.LinAlgError``.
    """
    energies, states = np.linalg.eigh(_check_matrix(H))
    _check_energies(energies)
    _fix_signs(states.T)
    energies.setflags(write=False)
    states.setflags(write=False)
    return Spectrum(energies=energies, states=states)


def _check_matrix(H: np.ndarray) -> np.ndarray:
    """``H`` as a float array, or ``ValueError`` unless it is a square,
    finite and symmetric matrix of dimension at most ``MAX_DIM``: the input
    rules of ``diagonalize``."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {H.shape[0]} exceeds the dense cap {MAX_DIM}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix must contain only finite values")
    if np.abs(H - H.T).max() > SYMMETRY_RTOL * max(1.0, np.abs(H).max()):
        raise ValueError("matrix is not symmetric within tolerance")
    return H


def _fix_signs(rows: np.ndarray) -> None:
    """Make the largest-magnitude entry of each row of ``rows`` positive, in
    place: the sign convention of every solver here, so repeated calls on
    identical input are bit-identical."""
    lead = np.argmax(np.abs(rows), axis=1)
    rows[rows[np.arange(len(rows)), lead] < 0.0] *= -1.0


def _check_energies(energies: np.ndarray) -> None:
    if not np.all(np.isfinite(energies)):
        raise ValueError("eigenvalues overflow; the coefficients are too large")


def eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape ``(m, dim)``, of every Hamiltonian in a
    stack of shape ``(m, dim, dim)`` built by ``model``, without
    eigenvectors.

    An eigenvalue beyond the float range raises ``ValueError``. A matrix
    gives bitwise the same energies alone as in a stack.
    """
    energies = np.linalg.eigvalsh(H)
    _check_energies(energies)
    return energies


def require_positive_finite(name: str, value: float) -> float:
    """``value`` as a float, or ``ValueError`` unless it is positive and
    finite. The rule for every tolerance."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def gap_gate(
    energy: np.ndarray, excited: np.ndarray, top: np.ndarray, deg_tol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degeneracy gate shared by every ground-state route, for arrays of
    ``E_0``, ``E_1`` and the highest energy of one or more spectra: the gaps
    ``E_1 - E_0``, the tolerances applied and the ``degenerate`` mask
    ``gap <= deg_tol``.

    ``deg_tol=None`` selects 1e-9 of ``max(1, width)`` for each spectrum,
    its width being ``top - energy``; an explicit value must be positive and
    finite, so that ``gap <= deg_tol`` is a real test. A degenerate ground
    manifold has no preferred state, and the entanglement machinery built on
    a unique ground state does not apply there. Raises ``ValueError``,
    naming the first such spectrum, when a width overflows, because no gap
    can be resolved on such a spectrum.
    """
    energy, excited, top = (np.asarray(x, dtype=float) for x in (energy, excited, top))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        width = top - energy
        gap = excited - energy
    overflow = np.flatnonzero(~np.isfinite(width))
    if overflow.size:
        k = overflow[0]
        raise ValueError(
            f"spectral width E_max - E_0 = {float(top[k])!r} - {float(energy[k])!r} "
            "overflows; the coefficients are too large"
        )
    tol = _tolerance(width, deg_tol)
    return gap, tol, gap <= tol


def _tolerance(width: np.ndarray, deg_tol: float | None) -> np.ndarray:
    """The degeneracy tolerance of each spectrum of width ``width``:
    ``deg_tol``, which must be positive and finite, or for ``None`` 1e-9 of
    ``max(1, width)``."""
    if deg_tol is None:
        return 1e-9 * np.maximum(1.0, width)
    return np.full(width.shape, require_positive_finite("deg_tol", deg_tol))


def ground_gap(
    energy: float, excited: float, top: float, deg_tol: float | None
) -> float:
    """``gap_gate`` for one spectrum: the gap ``E_1 - E_0`` as a float.

    Raises ``DegenerateGroundError`` when ``E_1 - E_0 <= deg_tol`` and
    ``ValueError`` when the spectral width overflows.
    """
    (gap,), (tol,), (degenerate,) = gap_gate([energy], [excited], [top], deg_tol)
    if degenerate:
        raise DegenerateGroundError(
            f"ground gap {gap:.3e} is within degeneracy tolerance {tol:.3e}"
        )
    return float(gap)


def ground_state(spec: Spectrum, deg_tol: float | None = None) -> GroundState:
    """Lowest eigenpair and its gap; fails rather than guessing on degeneracy.

    Raises ``DegenerateGroundError`` when ``E_1 - E_0 <= deg_tol`` (see
    ``ground_gap``).
    """
    if spec.dim < 2:
        raise ValueError("spectrum must contain at least two levels")
    energies = spec.energies
    gap = ground_gap(energies[0], energies[1], energies[-1], deg_tol)
    return GroundState(float(energies[0]), spec.states[:, 0], gap=gap, route="dense")


def _inverse_iteration(H: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground vectors, shape ``(m, dim)``, of a stack of matrices with
    ascending ``energies``, and the mask of those that pass the true-residual
    check of the Lanczos solver, ``|H v - E_0 v| <= TRUE_RESIDUAL_SLACK *
    EIGEN_RTOL * max(1, |E_0|, |E_max|)``; a matrix whose solve raises fails
    it with a NaN vector.

    ``INVERSE_STEPS`` solves with ``H - sigma I``, where ``sigma = E_0 -
    SHIFT_RTOL * max(1, |E_0|, |E_max|)`` sits just below the ground level
    so that no factor is singular. The start is fixed and needs no random
    generator: ``1 + frac(k * GOLDEN)``, positive, so it overlaps the
    positive ground state of nonnegative ``delta`` well, and irregular, so no
    sign symmetry of ``H`` makes it orthogonal to the ground state. Signs
    follow ``_fix_signs``.
    """
    m, dim = energies.shape
    scale = np.maximum(1.0, np.maximum(np.abs(energies[:, 0]), np.abs(energies[:, -1])))
    shift = energies[:, 0] - SHIFT_RTOL * scale
    start = 1.0 + np.modf(np.arange(1, dim + 1) * GOLDEN)[0]
    with np.errstate(all="ignore"):  # a non-finite vector fails the check
        A = H - shift[:, None, None] * np.eye(dim)
        x = np.broadcast_to(start, (m, dim))
        try:
            for _ in range(INVERSE_STEPS):
                x = np.linalg.solve(A, x[..., None])[..., 0]
                x = x / np.linalg.norm(x, axis=1, keepdims=True)
        except np.linalg.LinAlgError:  # retry point by point: only one may fail
            if m == 1:
                return np.full((1, dim), np.nan), np.zeros(1, dtype=bool)
            pieces = [_inverse_iteration(H[k : k + 1], energies[k : k + 1]) for k in range(m)]
            return tuple(np.concatenate(part) for part in zip(*pieces))
        residual = np.linalg.norm((H @ x[..., None])[..., 0] - energies[:, :1] * x, axis=1)
        verified = residual <= TRUE_RESIDUAL_SLACK * EIGEN_RTOL * scale
        _fix_signs(x)
    return x, verified


def ground_states(
    H: np.ndarray, deg_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies ``(m, dim)``, ground vectors ``(m, dim)`` and the
    ``degenerate`` mask ``(m,)`` of every Hamiltonian in a stack ``(m, dim,
    dim)`` built by ``model``.

    One stacked ``eigenvalues`` call gives every energy and one ``gap_gate``
    call gates every point on them. Each nondegenerate point takes its
    ground vector from ``_inverse_iteration``, or, where that fails its
    check, from ``diagonalize``; a degenerate point's vector is NaN. No
    excited eigenvector is computed. The vectors are read-only, and a matrix
    gives bitwise the same row alone as in a stack.
    """
    energies = eigenvalues(H)
    if H.shape[-1] < 2:
        raise ValueError("spectrum must contain at least two levels")
    degenerate = gap_gate(energies[:, 0], energies[:, 1], energies[:, -1], deg_tol)[2]
    vectors = np.full(energies.shape, np.nan)
    live = np.flatnonzero(~degenerate)
    if live.size:
        vectors[live], verified = _inverse_iteration(H[live], energies[live])
        for k in live[~verified]:
            vectors[k] = diagonalize(H[k]).states[:, 0]
    vectors.setflags(write=False)
    return energies, vectors, degenerate


def prove_ground_states(
    H: np.ndarray, start: np.ndarray, deg_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Ground vectors ``(m, dim)`` of a stack of Hamiltonians ``(m, dim,
    dim)`` built by ``model``, each proven nondegenerate without an
    eigenvalue solve, and the mask ``proven`` ``(m,)``; an unproven point's
    vector is NaN.

    From the warm vector ``start`` (shape ``(dim,)``, shared by the stack),
    Rayleigh-quotient inverse iteration runs until the true residual ``|H v
    - rho v|`` reaches rounding level, ``CONVERGED_RTOL * sqrt(dim) * |H|``,
    for at most ``RAYLEIGH_STEPS`` solves; each shift sits ``SHIFT_RTOL``
    below the quotient, so an exact eigenvector does not make a solve
    singular. A vector that does not converge, or whose residual exceeds
    ``TRUE_RESIDUAL_SLACK * EIGEN_RTOL * max(1, |rho|)``, is not proven.
    Then one stacked Cholesky factorization of ``H - (rho + tau + margin) I
    + alpha v v^T`` is the proof, ``rho >= E_0`` being the Rayleigh quotient
    of ``v``: the rank-one term lifts at most one eigenvalue (interlacing,
    Horn & Johnson, *Matrix Analysis* §4.3), so if that matrix is positive
    definite, ``E_1 > rho + tau >= E_0 + tau``, whatever the error in ``v``.
    The same test fails when ``v`` belongs to an excited level, since then
    ``E_0`` also lies below the shift. ``tau`` is the ``_tolerance`` of a
    Gershgorin bound ``width`` of ``E_max - E_0``, so a proven point passes
    ``gap_gate`` at its tolerance. ``alpha`` is
    ``width + 2 tau``, enough to lift the ground level above the shift.
    ``margin`` bounds the rounding of ``rho``, of forming the matrix and of
    its factorization (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.5; Rump, BIT 46, 2006). Signs follow
    ``_fix_signs``.
    """
    m, dim = H.shape[:2]
    vectors = np.full((m, dim), np.nan)
    proven = np.zeros(m, dtype=bool)
    diag = np.arange(dim)
    with np.errstate(all="ignore"):  # a non-finite value fails a check
        center = np.diagonal(H, axis1=1, axis2=2)
        radius = np.abs(H).sum(axis=2) - np.abs(center)
        low, high = (center - radius).min(axis=1), (center + radius).max(axis=1)
        width = high - low  # Gershgorin: E_max - E_0 <= width
        norm = np.maximum(np.abs(low), np.abs(high))  # >= |H|_2 and any row's |H| sum
        floor = CONVERGED_RTOL * math.sqrt(dim) * norm
        x = np.tile(np.asarray(start, dtype=float) / np.linalg.norm(start), (m, 1))
        rho, residual = np.zeros(m), np.full(m, np.inf)
        active = np.arange(m)
        for step in range(RAYLEIGH_STEPS + 1):
            A = H if active.size == m else H[active]
            y = (A @ x[active, :, None])[..., 0]
            rho[active] = (x[active] * y).sum(axis=1)
            residual[active] = np.linalg.norm(y - rho[active, None] * x[active], axis=1)
            active = active[~(residual[active] <= floor[active])]
            if step == RAYLEIGH_STEPS or not active.size:
                break
            A = H[active]
            shift = rho[active] - SHIFT_RTOL * np.maximum(1.0, np.abs(rho[active]))
            A[:, diag, diag] -= shift[:, None]
            try:
                solved = np.linalg.solve(A, x[active, :, None])[..., 0]
            except np.linalg.LinAlgError:  # an exactly singular shift: no proof
                break
            x[active] = solved / np.linalg.norm(solved, axis=1, keepdims=True)
        tau = _tolerance(width, deg_tol)
        alpha = width + 2.0 * tau
        eps = np.finfo(float).eps
        margin = 4.0 * (dim + 2) * eps * (dim * (norm + np.abs(rho) + tau) + alpha)
        checked = (residual <= floor) & (
            residual <= TRUE_RESIDUAL_SLACK * EIGEN_RTOL * np.maximum(1.0, np.abs(rho))
        )
    live = np.flatnonzero(checked & np.isfinite(margin))
    if not live.size:
        return vectors, proven
    x, shift, alpha = x[live], (rho + tau + margin)[live], alpha[live]
    M = (alpha[:, None] * x)[:, :, None] * x[:, None, :]
    M += H[live]
    M[:, diag, diag] -= shift[:, None]
    try:
        np.linalg.cholesky(M)
        factored = np.ones(live.size, dtype=bool)
    except np.linalg.LinAlgError:  # one point's failure fails the stack
        factored = np.array([_positive_definite(A) for A in M])
    _fix_signs(x)
    vectors[live[factored]] = x[factored]
    proven[live[factored]] = True
    return vectors, proven


def _positive_definite(A: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True

