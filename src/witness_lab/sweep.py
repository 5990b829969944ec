"""Parameter sweeps, gap-minimum detection and path-based certification.

A sweep walks an affine coefficient path over a fixed grid, recording the
lowest energies, the gap, and the ground-state ``<sz_i>`` trajectory at every
point. It works from the path's coefficient grid (``AffinePath.coefficients``)
rather than one ``QubitSystem`` per point: Hamiltonians are built a chunk of
grid points at a time, ``SWEEP_CHUNK_BYTES`` of matrices per chunk. Each
chunk is solved by one ``spectrum.ground_states`` call, which returns arrays:
stacked eigenvalues, residual-checked ground vectors and the degeneracy mask
of one gate call, with no excited eigenvectors. The ``<sz_i>`` of all the
chunk's nondegenerate points come from one ``sigma_z_profile`` product. A
point records energies, gap and ``<sz_i>`` only: no witness report and no
system per point, and the record is bitwise what ``ground_states`` gives for
that point alone. Degenerate points are flagged rather than failing the
sweep.

A sweep without energies (``energies=False``, the ``certify`` route) needs
only each point's ground vector and the fact that it is nondegenerate. The
grid is cut into fixed segments of ``SEGMENT_CHUNKS`` chunks. A segment's
first chunk goes through ``ground_states``; each later chunk is proven by
``spectrum.prove_ground_states``, warm-started from the segment's last
nondegenerate vector, and any point it cannot prove goes through
``ground_states``, whose gate then sets the point's flag. Its ``<sz_i>``
agree with ``ground_states``' to rounding, not bitwise. The segments do not
depend on the CPU count, so neither does the result.

Up to dimension ``PARALLEL_MAX_DIM`` (64, n <= 6) the chunks are solved on
every usable CPU (see ``run_sweep``). A chunk's solve is almost all LAPACK,
which runs with the GIL released, so the threads overlap. From dimension 128
on, OpenBLAS's own threads collide with the helpers and a threaded sweep
measured slower (n = 7..9), so those sweeps run on the calling thread alone.
On top of a sweep result:

* ``detect_anticrossings`` reports interior local minima of the gap, refined
  by a three-point parabolic fit, and
* ``certify_entanglement_on_path`` certifies ground-state entanglement for
  every pair that stays coupled on the whole grid and whose ``<sz>``
  trajectories both change along the path, provided no grid point is
  degenerate and no classical qubit's ``<sz>`` flips, and names a grid
  point whose ground state is entangled by the structure of the couplings.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import AffinePath, build_hamiltonians
from .observables import sigma_z_profile
from .spectrum import ground_states, prove_ground_states, require_positive_finite
from .witness import coupled_pairs

DEFAULT_VAR_TOL = 0.1  # spin units; well above noise, below anticrossing swings
SWEEP_CHUNK_BYTES = 1 << 18  # Hamiltonians built at once: 8 points at n=6, 1 at n >= 8
# Largest dimension whose chunks are split across threads. From 128 on,
# OpenBLAS's own threads collide with the helper threads and a sweep slows.
PARALLEL_MAX_DIM = 64
# Chunks per warm-start segment of a sweep without energies: a segment's
# first chunk takes the eigenvalue route, the later ones start from it.
SEGMENT_CHUNKS = 16


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Sweep specification: path, strictly ascending grid of at least three
    parameter values, and number of energies to record."""

    path: AffinePath
    grid: np.ndarray
    track_levels: int = 2

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


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_sweep(
    config: SweepConfig, deg_tol: float | None = None, energies: bool = True
) -> SweepResult:
    """Evaluate the sweep over its grid, chunk by chunk (see the module
    docstring). A point's record is bitwise what ``ground_states`` and
    ``sigma_z_profile`` give for ``build_hamiltonian(path.at(lam))`` alone.
    A degenerate point gets ``degenerate=True`` and NaN ``sz``.

    ``energies=False`` (the ``certify`` route) records NaN ``energies`` and
    ``gap``. It proves every chunk but a segment's first with
    ``prove_ground_states`` (see the module docstring), so its flags are
    those of ``ground_states`` except where a gap lies within rounding of
    the tolerance, and its ``sz`` agree with them to rounding.

    Up to dimension ``PARALLEL_MAX_DIM`` the work is split across ``W``
    threads, one per usable CPU but no more than there are units of work:
    chunks, or with ``energies=False`` whole segments, whose warm starts
    run in grid order. The calling thread solves units ``u`` with ``u % W
    == 0`` and helper threads the others. Every worker makes its chunks'
    records itself, so no chunk keeps its ground vectors, and stops at its
    first failing chunk. The calling thread joins the helpers, then
    concatenates the records in grid order and raises the first exception
    it meets, that of the first failing chunk, so neither the records nor
    the exception depend on ``W``.
    """
    path, grid = config.path, config.grid
    dim = 1 << path.n
    chunk = max(1, SWEEP_CHUNK_BYTES // (8 * dim * dim))
    starts = range(0, grid.size, chunk)
    span = 1 if energies else SEGMENT_CHUNKS  # chunks per unit of work
    units = range(0, len(starts), span)
    workers = 1 if dim > PARALLEL_MAX_DIM else min(len(units), _usable_cpus())

    def solve(k, warm):
        """Chunk ``k``'s records, and the warm start of the next chunk of
        its segment."""
        lams = grid[starts[k] : starts[k] + chunk]
        H = build_hamiltonians(*path.coefficients(lams))
        if energies or warm is None:
            levels, vectors, degenerate = ground_states(H, deg_tol)
        else:
            vectors, proven = prove_ground_states(H, warm, deg_tol)
            degenerate = np.zeros(lams.size, dtype=bool)
            rest = np.flatnonzero(~proven)
            if rest.size:
                _, vectors[rest], degenerate[rest] = ground_states(H[rest], deg_tol)
        if not energies:
            levels = np.full((lams.size, config.track_levels), np.nan)
        sz = np.full((lams.size, path.n), np.nan)
        sz[~degenerate] = sigma_z_profile(vectors[~degenerate])
        gaps = levels[:, 1] - levels[:, 0]
        levels = levels[:, : config.track_levels].copy()
        flags = degenerate.tolist()
        points = list(map(SweepPoint, lams.tolist(), levels, gaps.tolist(), sz, flags))
        live = np.flatnonzero(~degenerate)
        return points, (vectors[live[-1]] if live.size else warm)

    # Plain threads: a concurrent.futures executor gave the same records, no
    # speed-up on the n = 6 certify benchmark on a 2-CPU host, 0.4-1.8 MB
    # more peak RSS, and 5-8 ms of import time.
    solved = [None] * len(starts)  # each chunk's records, or its exception
    stop = threading.Event()  # set only when the calling thread is interrupted

    def work(first):
        for u in range(first, len(units), workers):
            warm = None
            for k in range(units[u], min(units[u] + span, len(starts))):
                if stop.is_set():
                    return
                try:
                    solved[k], warm = solve(k, warm)
                except Exception as exc:  # raised by the calling thread, in grid order
                    solved[k] = exc
                    return

    helpers = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            helpers.append(thread)
        work(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in helpers:
            thread.join()
    points = []
    for records in solved:
        if isinstance(records, Exception):
            raise records
        points += records
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
    clean = ~(degenerate[:-2] | degenerate[1:-1] | degenerate[2:])
    minima = clean & (gaps[1:-1] < gaps[:-2]) & (gaps[1:-1] < gaps[2:])
    return [
        _parabolic_vertex(lams[k - 1], gaps[k - 1], lams[k], gaps[k], lams[k + 1], gaps[k + 1])
        for k in np.flatnonzero(minima) + 1
    ]


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of the trajectory-based certification along a path.

    ``certified_pairs`` holds ``(i, j, var_i, var_j)`` for every coupled pair
    whose ``<sz>`` total variations both exceed the threshold; it is only
    ever populated when ``path_nondegenerate`` is true.
    ``oracle_confirmation`` is a grid value at which the ground state is
    entangled across ``{i}|rest`` for a certified pair ``(i, j)``, by the
    coupling structure (``_entangled_point``), or ``None`` if nothing is
    certified.
    """

    certified_pairs: list[tuple[int, int, float, float]]
    path_nondegenerate: bool
    oracle_confirmation: float | None


def _coupled_everywhere(result: SweepResult) -> np.ndarray:
    """``(n, n)`` mask of the pairs ``coupled_pairs`` marks at every grid
    point."""
    J = result.config.path.coefficients(result.config.grid)[2]
    return coupled_pairs(J).all(axis=0)


def _entangled_point(result: SweepResult, pairs: np.ndarray) -> float | None:
    """The first grid value at which both qubits of some pair ``(i, j)`` in
    ``pairs`` are quantum (``delta != 0``), or ``None``. The steps between
    neighbouring points are taken from the largest ``sum_i |change of
    <sz_i>|`` down, where the spins turn, and each step's two points in
    grid order.

    Every pair in ``pairs`` is coupled at every grid point, and no point is
    degenerate, so the ground state there is entangled across ``{i}|rest``
    by this rule: call qubit ``q`` quantum if ``delta_q != 0`` and classical
    otherwise; a nondegenerate ground state is entangled across a cut A|B
    if and only if some ``J_kl != 0`` joins a quantum ``k`` in A to a
    quantum ``l`` in B. Every off-diagonal entry of H is ``-delta_q / 2``,
    on one bit flip. Proof sketch:

    * Each classical ``sz_c`` commutes with H, so ``psi = |s_C> (x) phi_Q``
      with ``phi_Q`` the unique ground state of the quantum qubits under
      the biases ``h_q - sum_c J_qc s_c``.
    * Conjugating by ``sz_q`` for every ``q`` with ``delta_q < 0`` makes
      every off-diagonal entry ``-|delta_q| / 2 <= 0``. These entries join
      every two basis states one quantum bit apart, so the matrix is
      irreducible, and by Perron-Frobenius ``phi_Q`` is entrywise positive.
      The gauge is a product of local unitaries and changes no
      entanglement.
    * If no coupling joins the quantum parts of A and B, ``H_Q`` splits
      and ``phi_Q`` is a product.
    * Conversely, let ``phi_Q = phi_A (x) phi_B``. The ``(A-perp (x)
      B-perp)`` component of ``H psi = E psi`` reads ``sum J_kl a_k (x) b_l
      = 0`` with ``a_k = (sz_k - <sz_k>) phi_A``. ``phi_A`` has no zero
      entry, so the ``a_k`` are linearly independent (a ``sum c_k s_k``
      constant on every sign vector has ``c = 0``), and so are the ``b_l``.
      Hence every crossing ``J_kl`` is 0.

    Refs: Horn & Johnson, *Matrix Analysis*, ch. 8 (Perron-Frobenius);
    Bravyi, DiVincenzo, Oliveira & Terhal, arXiv:quant-ph/0606140
    (stoquastic Hamiltonians). No solve and no tolerance is needed.
    """
    grid = result.config.grid
    quantum = result.config.path.coefficients(grid)[0] != 0.0
    entangled = (quantum[:, pairs[:, 0]] & quantum[:, pairs[:, 1]]).any(axis=1)
    steps = np.abs(np.diff(result.sz_trajectories, axis=0)).sum(axis=1)
    order = np.argsort(-steps, kind="stable")
    visits = np.column_stack([order, order + 1]).ravel()
    hits = visits[entangled[visits]]
    return float(grid[hits[0]]) if hits.size else None


def certify_entanglement_on_path(
    result: SweepResult, var_tol: float = DEFAULT_VAR_TOL
) -> CertificationReport:
    """Certify ground-state entanglement from ``<sz>`` trajectories.

    A nondegenerate ground state that stays completely separable along a
    continuous path cannot have both ``<sz_i>`` and ``<sz_j>`` of a coupled
    pair change, so a pair certifies when both total variations exceed
    ``var_tol``, which must be positive and finite. Any degenerate grid
    point voids certification for the whole path. So does a level crossing
    between grid points that a classical qubit reveals: a qubit with
    ``delta_i = 0`` on the whole path has a conserved ``sz_i``, so its
    ``<sz_i>`` is +-1 at every nondegenerate point, and a flip between any
    two points means the lowest levels of its two sectors swap order in
    between. A positive finding names a grid point whose ground state is
    entangled by the coupling structure (``_entangled_point``).
    """
    var_tol = require_positive_finite("var_tol", var_tol)
    path = result.config.path
    classical = (path.base.delta == 0.0) & (path.direction.delta == 0.0)
    sz = result.sz_trajectories
    flipped = np.ptp(sz[:, classical], axis=0) > 1.0
    if bool(result.degenerate_flags.any() or flipped.any()):
        return CertificationReport(
            certified_pairs=[], path_nondegenerate=False, oracle_confirmation=None
        )
    variations = np.abs(np.diff(sz, axis=0)).sum(axis=0)
    moving = variations > var_tol
    # argwhere lists pairs i < j in lexicographic order
    pairs = np.argwhere(np.triu(_coupled_everywhere(result) & np.outer(moving, moving)))
    certified = [
        (i, j, float(variations[i]), float(variations[j])) for i, j in pairs.tolist()
    ]
    return CertificationReport(
        certified_pairs=certified,
        path_nondegenerate=True,
        oracle_confirmation=_entangled_point(result, pairs) if certified else None,
    )
