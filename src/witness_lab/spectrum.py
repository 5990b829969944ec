"""Dense symmetric eigendecomposition with deterministic conventions, and
the degeneracy gate every ground-state route passes through.

``diagonalize`` computes the full decomposition: the ``spectrum`` and
``sweep`` commands report excited levels, and the sum-over-states
susceptibility sums over every excited state. Routes that need only the
ground state, its gap and the susceptibility matrix (the ``witness`` command
at dimension 1024 and above) use the matrix-free Krylov solvers in
``krylov`` instead, and hand their energies to the same gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4096
SYMMETRY_RTOL = 1e-12


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

    ``route`` names the solver that produced it: ``"dense"`` for the full
    eigendecomposition, ``"krylov"`` for the matrix-free Lanczos solver.
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
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dim = H.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the dense cap {MAX_DIM}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix must contain only finite values")
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")

    energies, states = np.linalg.eigh(H)
    if not np.all(np.isfinite(energies)):
        raise ValueError("eigenvalues overflow; the coefficients are too large")

    lead = np.argmax(np.abs(states), axis=0)
    flip = states[lead, np.arange(dim)] < 0.0
    states[:, flip] *= -1.0

    energies.setflags(write=False)
    states.setflags(write=False)
    return Spectrum(energies=energies, states=states)


def resolve_degeneracy_tolerance(deg_tol: float | None, width: float) -> float:
    """Degeneracy tolerance to apply for a spectrum of the given width.

    ``None`` selects the default, 1e-9 of ``max(1, width)``; an explicit
    value must be positive and finite, so that ``gap <= deg_tol`` is a real
    test.
    """
    if deg_tol is None:
        return 1e-9 * max(1.0, width)
    return require_positive_finite("deg_tol", deg_tol)


def require_positive_finite(name: str, value: float) -> float:
    """``value`` as a float, or ``ValueError`` unless it is positive and
    finite. The rule for every tolerance and step except ``schmidt_tol``."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def gate_ground(
    energy: float,
    vector: np.ndarray,
    excited: float,
    top: float,
    deg_tol: float | None,
    route: str,
) -> GroundState:
    """The degeneracy gate shared by every ground-state route.

    ``energy``, ``excited`` and ``top`` are ``E_0``, ``E_1`` and the highest
    energy (the spectral width ``top - energy`` sets the default tolerance).
    Raises ``DegenerateGroundError`` when ``E_1 - E_0 <= deg_tol``: a
    degenerate ground manifold has no preferred state, and the entanglement
    machinery built on a unique ground state does not apply. Raises
    ``ValueError`` when the spectral width overflows, because no gap can be
    resolved on such a spectrum.
    """
    # Python floats: an overflowing difference becomes inf without a numpy
    # warning and is reported below.
    energy, excited, top = float(energy), float(excited), float(top)
    width = top - energy
    if not math.isfinite(width):
        raise ValueError(
            f"spectral width E_max - E_0 = {top!r} - {energy!r} overflows; "
            "the coefficients are too large"
        )
    gap = excited - energy
    deg_tol = resolve_degeneracy_tolerance(deg_tol, width)
    if gap <= deg_tol:
        raise DegenerateGroundError(
            f"ground gap {gap:.3e} is within degeneracy tolerance {deg_tol:.3e}"
        )
    return GroundState(energy=energy, vector=vector, gap=gap, route=route)


def ground_state(spec: Spectrum, deg_tol: float | None = None) -> GroundState:
    """Lowest eigenpair and its gap; fails rather than guessing on degeneracy.

    Raises ``DegenerateGroundError`` when ``E_1 - E_0 <= deg_tol`` (see
    ``gate_ground``).
    """
    if spec.dim < 2:
        raise ValueError("spectrum must contain at least two levels")
    return gate_ground(
        energy=spec.energies[0],
        vector=spec.states[:, 0],
        excited=spec.energies[1],
        top=spec.energies[-1],
        deg_tol=deg_tol,
        route="dense",
    )
