"""Parameter sweeps, gap-minimum detection and path-based certification.

A sweep walks an affine coefficient path over a fixed grid, recording the
lowest energies, the gap, and the ground-state ``<sz_i>`` trajectory at every
point. It works from the path's coefficient grid (``AffinePath.coefficients``)
rather than one ``QubitSystem`` per point: Hamiltonians are built a chunk of
grid points at a time, ``SWEEP_CHUNK_BYTES`` of matrices per chunk, and each
is diagonalized on its own through ``diagonalize`` and gated through
``ground_state``. Degenerate points are flagged rather than failing the
sweep. On top of a sweep result:

* ``detect_anticrossings`` reports interior local minima of the gap, refined
  by a three-point parabolic fit, and
* ``certify_entanglement_on_path`` certifies ground-state entanglement for
  every pair that stays coupled on the whole grid and whose ``<sz>``
  trajectories both change along the path, provided no grid point is
  degenerate — cross-checked against the Schmidt-decomposition oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AffinePath, build_hamiltonians
from .observables import sigma_z_profile
from .separability import SCHMIDT_TOL, is_fully_separable, resolve_schmidt_tolerance
from .spectrum import (
    DegenerateGroundError,
    diagonalize,
    ground_state,
    require_positive_finite,
)
from .witness import WitnessReport, coupled_pairs, witness_report

DEFAULT_VAR_TOL = 0.1  # spin units; well above noise, below anticrossing swings
SWEEP_CHUNK_BYTES = 1 << 18  # Hamiltonians built at once: 8 points at n=6, 1 at n >= 8


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Sweep specification: path, strictly ascending grid of at least three
    parameter values, number of energies to record, and whether to attach a
    witness report to each point."""

    path: AffinePath
    grid: np.ndarray
    track_levels: int = 2
    compute_witnesses: bool = False

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be a vector with at least 3 points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid must contain only finite values")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly ascending")
        if not 2 <= self.track_levels <= (1 << self.path.n):
            raise ValueError(
                f"track_levels must be in [2, {1 << self.path.n}], got {self.track_levels}"
            )
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    lam: float
    energies: np.ndarray
    gap: float
    sz: np.ndarray
    degenerate: bool
    witnesses: WitnessReport | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-grid-point records, in grid order, plus the config they came from."""

    config: SweepConfig
    points: list[SweepPoint]

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def gaps(self) -> np.ndarray:
        return np.array([p.gap for p in self.points])

    @property
    def sz_trajectories(self) -> np.ndarray:
        """Array of shape (grid points, n)."""
        return np.vstack([p.sz for p in self.points])

    @property
    def degenerate_flags(self) -> np.ndarray:
        return np.array([p.degenerate for p in self.points])


def run_sweep(
    config: SweepConfig,
    deg_tol: float | None = None,
    fd_step: float | None = None,
) -> SweepResult:
    """Evaluate the sweep over its grid, in grid order.

    The path's coefficients and Hamiltonians are built for a chunk of grid
    points at once, ``SWEEP_CHUNK_BYTES`` of matrices per chunk, so no
    ``QubitSystem`` is made per point. Each point is then diagonalized on
    its own, so its record is bitwise what a per-point
    ``diagonalize(build_hamiltonian(path.at(lam)))`` gives. A degenerate
    point gets ``degenerate=True`` and NaN ``sz``. With
    ``compute_witnesses`` each nondegenerate point also gets a
    ``witness_report`` of ``path.at(lam)``.
    """
    path, grid = config.path, config.grid
    dim = 1 << path.n
    chunk = max(1, SWEEP_CHUNK_BYTES // (8 * dim * dim))
    points = []
    for start in range(0, grid.size, chunk):
        lams = grid[start : start + chunk]
        for lam, H in zip(lams, build_hamiltonians(*path.coefficients(lams))):
            spec = diagonalize(H)
            try:
                sz = sigma_z_profile(ground_state(spec, deg_tol).vector)
                degenerate = False
            except DegenerateGroundError:
                sz = np.full(path.n, np.nan)
                degenerate = True
            witnesses = None
            if config.compute_witnesses and not degenerate:
                witnesses = witness_report(
                    spec, path.at(lam), deg_tol, path=path, lambda0=lam, fd_step=fd_step
                )
            points.append(
                SweepPoint(
                    lam=float(lam),
                    energies=np.array(spec.energies[: config.track_levels]),
                    gap=float(spec.energies[1] - spec.energies[0]),
                    sz=sz,
                    degenerate=degenerate,
                    witnesses=witnesses,
                )
            )
    return SweepResult(config=config, points=points)


def _parabolic_vertex(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float
) -> tuple[float, float]:
    # Newton form through three bracketing points; a strict interior minimum
    # guarantees upward curvature, but degrade to the raw sample if the
    # curvature underflows.
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    curvature = (d12 - d01) / (x2 - x0)
    if curvature <= 0.0:
        return x1, y1
    x_star = 0.5 * (x0 + x1) - d01 / (2.0 * curvature)
    y_star = y0 + d01 * (x_star - x0) + curvature * (x_star - x0) * (x_star - x1)
    return float(x_star), float(y_star)


def detect_anticrossings(result: SweepResult) -> list[tuple[float, float]]:
    """Interior strict local minima of the gap, refined parabolically.

    Minima whose three-point neighborhood touches a degenerate grid point
    are not reported: the gap is not trustworthy there. An empty list means
    the gap is monotonic over the grid.
    """
    lams = result.lambdas
    gaps = result.gaps
    degenerate = result.degenerate_flags
    if lams.size < 3:
        raise ValueError("anticrossing detection needs at least 3 grid points")
    found = []
    for k in range(1, lams.size - 1):
        if degenerate[k - 1] or degenerate[k] or degenerate[k + 1]:
            continue
        if gaps[k] < gaps[k - 1] and gaps[k] < gaps[k + 1]:
            found.append(
                _parabolic_vertex(
                    lams[k - 1], gaps[k - 1], lams[k], gaps[k], lams[k + 1], gaps[k + 1]
                )
            )
    return found


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of the trajectory-based certification along a path.

    ``certified_pairs`` holds ``(i, j, var_i, var_j)`` for every coupled pair
    whose ``<sz>`` total variations both exceed the threshold; it is only
    ever populated when ``path_nondegenerate`` is true.
    ``oracle_confirmation`` is a grid value where the Schmidt oracle found
    the ground state non-separable, or ``None`` if not searched or not found.
    """

    certified_pairs: list[tuple[int, int, float, float]]
    path_nondegenerate: bool
    oracle_confirmation: float | None


def _coupled_everywhere(result: SweepResult) -> np.ndarray:
    """``(n, n)`` mask of the pairs ``coupled_pairs`` marks at every grid
    point."""
    J = result.config.path.coefficients(result.config.grid)[2]
    return coupled_pairs(J).all(axis=0)


def _find_nonseparable_point(
    result: SweepResult, deg_tol: float | None, schmidt_tol: float
) -> float | None:
    # Search in ascending-gap order: entanglement is most likely where the
    # levels almost touch, so this usually ends after one diagonalization.
    order = np.argsort(result.gaps, kind="stable")
    for k in order:
        point = result.points[k]
        if point.degenerate:
            continue
        H = build_hamiltonians(*result.config.path.coefficients([point.lam]))[0]
        gs = ground_state(diagonalize(H), deg_tol)
        if not is_fully_separable(gs.vector, schmidt_tol):
            return point.lam
    return None


def certify_entanglement_on_path(
    result: SweepResult,
    var_tol: float = DEFAULT_VAR_TOL,
    deg_tol: float | None = None,
    schmidt_tol: float = SCHMIDT_TOL,
) -> CertificationReport:
    """Certify ground-state entanglement from ``<sz>`` trajectories.

    A nondegenerate ground state that stays completely separable along a
    continuous path cannot have both ``<sz_i>`` and ``<sz_j>`` of a coupled
    pair change, so a pair certifies when both total variations exceed
    ``var_tol``. Any degenerate grid point voids certification for the whole
    path. A positive finding is cross-checked by locating a grid point whose
    ground state the Schmidt oracle marks as non-separable. ``var_tol``
    must be positive and finite and ``schmidt_tol`` in (0, 1).
    """
    var_tol = require_positive_finite("var_tol", var_tol)
    schmidt_tol = resolve_schmidt_tolerance(schmidt_tol)
    degenerate = result.degenerate_flags
    if bool(degenerate.any()):
        return CertificationReport(
            certified_pairs=[], path_nondegenerate=False, oracle_confirmation=None
        )
    sz = result.sz_trajectories
    variations = np.abs(np.diff(sz, axis=0)).sum(axis=0)
    n = result.config.path.n
    coupled = _coupled_everywhere(result)
    certified = []
    for i in range(n):
        for j in range(i + 1, n):
            if coupled[i, j] and variations[i] > var_tol and variations[j] > var_tol:
                certified.append((i, j, float(variations[i]), float(variations[j])))
    confirmation = None
    if certified:
        confirmation = _find_nonseparable_point(result, deg_tol, schmidt_tol)
    return CertificationReport(
        certified_pairs=certified,
        path_nondegenerate=True,
        oracle_confirmation=confirmation,
    )
