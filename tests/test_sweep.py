import json
import os
import sys
import threading
import time

import numpy as np
import pytest
from conftest import random_system_with_classical_qubits, structurally_entangled

import witness_lab.sweep as sweep_module
from witness_lab import (
    AffinePath,
    Bipartition,
    QubitSystem,
    SweepConfig,
    SweepPoint,
    SweepResult,
    build_hamiltonian,
    build_hamiltonians,
    certify_entanglement_on_path,
    coupled_pairs,
    detect_anticrossings,
    diagonalize,
    ground_state,
    is_fully_separable,
    run_sweep,
    sigma_z_profile,
)
from witness_lab.spectrum import ground_states


def uniform_bias_path(base):
    n = base.n
    return AffinePath(
        base=base,
        direction=QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n))),
    )


def single_qubit_path(delta=0.2):
    return uniform_bias_path(QubitSystem(delta=[delta], h=[0.0], J=np.zeros((1, 1))))


def fm_pair_path():
    return uniform_bias_path(
        QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])
    )


def fm_chain_path(n, delta=0.2):
    couplings = [(i, i + 1, -1.0) for i in range(n - 1)]
    return uniform_bias_path(
        QubitSystem.from_couplings([delta] * n, [0.0] * n, couplings)
    )


def random_path(rng, n):
    """Random path moving every coefficient: delta, h and J."""

    def symmetric():
        J = np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
        return J + J.T

    base = QubitSystem(delta=rng.uniform(0.1, 1, n), h=rng.uniform(-1, 1, n), J=symmetric())
    direction = QubitSystem(
        delta=rng.uniform(-0.3, 0.3, n), h=rng.uniform(-1, 1, n), J=symmetric()
    )
    return AffinePath(base=base, direction=direction)


def chunk_points(n):
    return max(1, sweep_module.SWEEP_CHUNK_BYTES // (8 * 4**n))


def per_point_sweep(config, deg_tol=None):
    """Reference sweep with one ``QubitSystem``, one ``build_hamiltonian``
    and one one-point ``ground_states`` call per grid point, as ``(lam,
    energies, gap, sz, degenerate)``."""
    records = []
    for lam in config.grid:
        system = config.path.at(lam)
        H = build_hamiltonian(system)[None]
        (levels,), (vector,), (degenerate,) = ground_states(H, deg_tol)
        sz = np.full(system.n, np.nan) if degenerate else sigma_z_profile(vector)
        energies = np.array(levels[: config.track_levels])
        gap = float(levels[1] - levels[0])
        records.append((float(lam), energies, gap, sz, degenerate))
    return records


def assert_bitwise_equal_to_reference(config, **kwargs):
    result = run_sweep(config, **kwargs)
    reference = per_point_sweep(config, **kwargs)
    assert len(result.points) == len(reference) == config.grid.size
    for point, (lam, energies, gap, sz, degenerate) in zip(result.points, reference):
        assert point.lam == lam
        assert point.energies.tobytes() == energies.tobytes()
        assert np.float64(point.gap).tobytes() == np.float64(gap).tobytes()
        assert point.sz.tobytes() == sz.tobytes()  # NaN payloads included
        assert point.degenerate == degenerate
    return result


class TestSweepConfig:
    def test_grid_validation(self):
        path = single_qubit_path()
        with pytest.raises(ValueError, match="3 points"):
            SweepConfig(path=path, grid=[0.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            SweepConfig(path=path, grid=[0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            SweepConfig(path=path, grid=[1.0, 0.5, 2.0])

    def test_track_levels_validation(self):
        path = single_qubit_path()
        with pytest.raises(ValueError, match="track_levels"):
            SweepConfig(path=path, grid=[0.0, 0.5, 1.0], track_levels=1)
        with pytest.raises(ValueError, match="track_levels"):
            SweepConfig(path=path, grid=[0.0, 0.5, 1.0], track_levels=3)


class TestRunSweep:
    def test_single_qubit_gap_matches_analytic(self):
        # two-level gap is 2*sqrt(lambda^2 + delta^2/4)
        config = SweepConfig(path=single_qubit_path(0.2), grid=np.linspace(-1, 1, 201))
        result = run_sweep(config)
        lams = result.lambdas
        expected = 2.0 * np.sqrt(lams**2 + 0.01)
        assert np.abs(result.gaps - expected).max() <= 1e-12
        sz = result.sz_trajectories[:, 0]
        assert sz[0] < -0.9 and sz[-1] > 0.9
        assert abs(sz[100]) <= 1e-12  # lambda = 0 is on the grid
        assert not result.degenerate_flags.any()

    def test_degenerate_point_flagged_not_fatal(self):
        base = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        config = SweepConfig(path=uniform_bias_path(base), grid=[-1.0, 0.0, 1.0])
        result = run_sweep(config)
        flags = result.degenerate_flags
        assert list(flags) == [False, True, False]
        degenerate_point = result.points[1]
        assert np.all(np.isnan(degenerate_point.sz))
        assert degenerate_point.gap >= 0.0
        # energies still recorded at the degenerate point
        assert degenerate_point.energies.shape == (2,)

    def test_constant_path_records_identical(self):
        base = QubitSystem.from_couplings([1.0, 0.8], [0.3, 0.1], [(0, 1, 0.4)])
        direction = QubitSystem(delta=[0.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction), grid=[-1.0, 0.0, 1.0]
        )
        result = run_sweep(config)
        first = result.points[0]
        for point in result.points[1:]:
            assert np.array_equal(point.energies, first.energies)
            assert np.array_equal(point.sz, first.sz)
            assert point.gap == first.gap

    def test_track_levels_and_order(self):
        config = SweepConfig(
            path=fm_pair_path(), grid=np.linspace(-1, 1, 5), track_levels=4
        )
        result = run_sweep(config)
        assert [p.lam for p in result.points] == list(config.grid)
        for point in result.points:
            assert point.energies.shape == (4,)
            assert np.all(np.diff(point.energies) >= 0.0)

    def test_no_system_built_per_grid_point(self, monkeypatch):
        calls = []
        original = AffinePath.at

        def counting_at(self, lam):
            calls.append(lam)
            return original(self, lam)

        monkeypatch.setattr(AffinePath, "at", counting_at)
        config = SweepConfig(path=fm_chain_path(4), grid=np.linspace(-2, 2, 41))
        report = certify_entanglement_on_path(run_sweep(config))
        assert report.certified_pairs and report.oracle_confirmation is not None
        assert calls == []

    def test_sz_computed_once_per_chunk(self, monkeypatch):
        calls = []
        original = sweep_module.sigma_z_profile

        def counting(states):
            calls.append(states.shape)
            return original(states)

        monkeypatch.setattr(sweep_module, "sigma_z_profile", counting)
        n = 6
        size = 2 * chunk_points(n) + 3
        config = SweepConfig(path=fm_chain_path(n), grid=np.linspace(-1.0, 1.0, size))
        result = run_sweep(config)
        assert len(result.points) == size
        # each worker makes its own chunks' records, so the calls may come
        # in any order
        assert sorted(calls) == [(3, 1 << n)] + [(chunk_points(n), 1 << n)] * 2

    def test_gap_continuity_on_smooth_path(self):
        config = SweepConfig(path=single_qubit_path(0.5), grid=np.linspace(-1, 1, 101))
        result = run_sweep(config)
        gaps = result.gaps
        spacing = 0.02
        slope_scale = 2.0  # |d gap / d lambda| <= 2 for the two-level system
        assert np.abs(np.diff(gaps)).max() <= 10.0 * spacing * slope_scale


class TestChunkedSweepMatchesPerPoint:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_grids_around_one_chunk(self, offset):
        rng = np.random.default_rng(40 + offset)
        n = 6
        grid = np.linspace(-1.0, 1.0, chunk_points(n) + offset)
        assert_bitwise_equal_to_reference(SweepConfig(path=random_path(rng, n), grid=grid))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_three_point_grids_on_random_paths(self, n):
        rng = np.random.default_rng(70 + n)
        config = SweepConfig(path=random_path(rng, n), grid=[-0.7, 0.1, 1.3])
        assert_bitwise_equal_to_reference(config)

    def test_long_grid_over_many_chunks(self):
        rng = np.random.default_rng(5)
        n = 5
        config = SweepConfig(path=random_path(rng, n), grid=np.linspace(-2, 2, 2001))
        assert chunk_points(n) < 2001 and 2001 % chunk_points(n) != 0
        assert_bitwise_equal_to_reference(config)

    def test_degenerate_point_inside_a_chunk(self):
        # classical ferromagnetic chain: all-up and all-down tie at lambda = 0
        n = 6
        grid = np.linspace(-1, 1, 21)
        k = int(np.flatnonzero(grid == 0.0)[0])
        assert 0 < k % chunk_points(n) < chunk_points(n) - 1
        config = SweepConfig(path=fm_chain_path(n, delta=0.0), grid=grid)
        result = assert_bitwise_equal_to_reference(config)
        assert list(np.flatnonzero(result.degenerate_flags)) == [k]

    def test_all_levels_tracked(self):
        rng = np.random.default_rng(8)
        n = 3
        config = SweepConfig(
            path=random_path(rng, n), grid=np.linspace(-1, 1, 7), track_levels=1 << n
        )
        assert_bitwise_equal_to_reference(config)

    def test_nonfinite_interior_point_rejected(self):
        base = QubitSystem(delta=[0.5, 0.5], h=[1e308, 0.0], J=np.zeros((2, 2)))
        direction = QubitSystem(delta=[0.0, 0.0], h=[1e308, 0.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction), grid=np.linspace(-1, 2, 31)
        )
        with pytest.raises(ValueError, match="not finite"):
            run_sweep(config)


def pin_workers(monkeypatch, workers):
    """Make ``run_sweep`` see ``workers`` usable CPUs."""
    monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: workers)


def record_thread_starts(monkeypatch):
    """List that collects every ``threading.Thread`` started from now on."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


def slow_calling_thread(monkeypatch):
    """Delay each chunk the calling thread solves, so helpers run ahead and
    their chunks finish, or fail, first."""
    caller = threading.current_thread()
    original = sweep_module.ground_states

    def delayed(*args):
        if threading.current_thread() is caller:
            time.sleep(0.02)
        return original(*args)

    monkeypatch.setattr(sweep_module, "ground_states", delayed)


def sweep_records(config, energies=True):
    """Every ``SweepPoint`` field as bytes, for bitwise comparison."""
    return [
        (
            np.float64(p.lam).tobytes(),
            p.energies.tobytes(),
            np.float64(p.gap).tobytes(),
            p.sz.tobytes(),  # NaN payloads included
            p.degenerate,
        )
        for p in run_sweep(config, energies=energies).points
    ]


def overflowing_path(n):
    """Path whose ``h_0`` is ``lambda * 1e308``: from ``|lambda|`` near 0.9
    the spectral width overflows, and from 1.8 the coefficient itself, so
    failing chunks name different lambdas or different causes."""
    zero = QubitSystem(delta=np.full(n, 0.5), h=np.zeros(n), J=np.zeros((n, n)))
    h = np.zeros(n)
    h[0] = 1e308
    direction = QubitSystem(delta=np.zeros(n), h=h, J=np.zeros((n, n)))
    return AffinePath(base=zero, direction=direction)


def chunk_errors(config):
    """Message of each chunk that fails when solved on its own, in grid
    order."""
    size = chunk_points(config.path.n)
    messages = []
    for start in range(0, config.grid.size, size):
        try:
            coefficients = config.path.coefficients(config.grid[start : start + size])
            ground_states(build_hamiltonians(*coefficients))
        except ValueError as exc:
            messages.append(str(exc))
    return messages


class TestThreadedSweep:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", ["random", "classical chain"])
    def test_threads_give_the_one_worker_records(self, monkeypatch, n, kind):
        rng = np.random.default_rng(90 + n)
        size = 3 * chunk_points(n) + 3  # a short last chunk
        grid = np.linspace(-1.0, 1.0, size)
        if kind == "random":
            path = random_path(rng, n)
        else:
            # all-up and all-down tie at lambda = 0: a degenerate point
            grid[size // 2] = 0.0
            path = fm_chain_path(n, delta=0.0)
        config = SweepConfig(path=path, grid=grid)
        pin_workers(monkeypatch, 1)
        serial = sweep_records(config)
        assert (kind == "classical chain") == any(record[4] for record in serial)
        for workers in (2, 3):
            pin_workers(monkeypatch, workers)
            started = record_thread_starts(monkeypatch)
            assert sweep_records(config) == serial
            assert len(started) == workers - 1
            assert not any(thread.is_alive() for thread in started)

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # Short switch interval: the calling thread and the helpers hand
        # chunks over as often as possible. A lost or misplaced chunk
        # changes the records.
        path = random_path(np.random.default_rng(3), 5)
        config = SweepConfig(path=path, grid=np.linspace(-2, 2, 1001))
        pin_workers(monkeypatch, 1)
        serial = sweep_records(config)
        pin_workers(monkeypatch, 4 * (os.cpu_count() or 1))
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: outcome.append(sweep_records(config)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome == [serial]

    @pytest.mark.parametrize(
        "lo, hi, num",
        [
            (-2.0, 2.0, 41),  # chunks 0, 1, 3, 4 and 5 fail
            (0.5, 2.5, 41),  # chunks 1 to 5 fail
            (-0.5, 2.0, 41),  # chunks 2 to 5 fail
        ],
    )
    @pytest.mark.parametrize("slow_caller", [False, True])
    def test_first_failing_chunk_raises_serial_message(
        self, monkeypatch, capfd, lo, hi, num, slow_caller
    ):
        config = SweepConfig(path=overflowing_path(6), grid=np.linspace(lo, hi, num))
        messages = chunk_errors(config)
        assert len(set(messages)) >= 2
        if slow_caller:
            slow_calling_thread(monkeypatch)
        pin_workers(monkeypatch, 1)
        with pytest.raises(ValueError) as serial:
            run_sweep(config)
        assert str(serial.value) == messages[0]
        for workers in (2, 3):
            pin_workers(monkeypatch, workers)
            started = record_thread_starts(monkeypatch)
            with pytest.raises(ValueError) as threaded:
                run_sweep(config)
            assert str(threaded.value) == messages[0]
            assert len(started) == workers - 1
            assert not any(thread.is_alive() for thread in started)
        assert capfd.readouterr() == ("", "")

    def test_interrupt_of_the_calling_thread_stops_the_helpers(self, monkeypatch):
        # The calling thread is interrupted on its first chunk; the helper,
        # slowed down, must stop at its next chunk instead of finishing its
        # 50 chunks, and be joined before the interrupt propagates.
        caller = threading.current_thread()
        original = sweep_module.ground_states
        helper_chunks = []

        def interrupted(*args):
            if threading.current_thread() is caller:
                raise KeyboardInterrupt
            helper_chunks.append(1)
            time.sleep(0.01)
            return original(*args)

        monkeypatch.setattr(sweep_module, "ground_states", interrupted)
        config = SweepConfig(path=fm_chain_path(6), grid=np.linspace(-1.0, 1.0, 800))
        pin_workers(monkeypatch, 2)
        started = record_thread_starts(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(config)
        assert len(started) == 1 and not started[0].is_alive()
        assert len(helper_chunks) < 10

    @pytest.mark.parametrize("n", [7, 8])
    def test_no_thread_above_parallel_dimension(self, monkeypatch, n):
        assert 1 << n > sweep_module.PARALLEL_MAX_DIM
        config = SweepConfig(path=fm_chain_path(n), grid=np.linspace(-1.0, 1.0, 5))
        pin_workers(monkeypatch, 4)
        started = record_thread_starts(monkeypatch)
        result = run_sweep(config)
        assert len(result.points) == 5
        assert started == []


def proof_grid_size(n):
    """Two full segments and a short chunk: every chunk but a segment's
    first goes through the proof."""
    return (2 * sweep_module.SEGMENT_CHUNKS + 1) * chunk_points(n) - 3


def anticrossing_path(rng, n):
    """Ferromagnetic chain with weak random tunneling under a uniform bias:
    the spins flip through sharp anticrossings."""
    couplings = [(i, i + 1, -float(rng.uniform(0.5, 1.5))) for i in range(n - 1)]
    base = QubitSystem.from_couplings(
        rng.uniform(0.05, 0.4, n), rng.uniform(-0.1, 0.1, n), couplings
    )
    return uniform_bias_path(base)


def count_proofs(monkeypatch):
    """Points proven and points refused by each ``prove_ground_states``
    call of the sweep, in call order."""
    calls = []
    original = sweep_module.prove_ground_states

    def counting(H, start, deg_tol):
        vectors, proven = original(H, start, deg_tol)
        calls.append((int(proven.sum()), int((~proven).sum())))
        return vectors, proven

    monkeypatch.setattr(sweep_module, "prove_ground_states", counting)
    return calls


class TestProofRoute:
    @pytest.mark.parametrize("n", range(4, 8))
    @pytest.mark.parametrize("kind", ["random", "anticrossings", "classical chain"])
    def test_flags_match_ground_states(self, monkeypatch, n, kind):
        rng = np.random.default_rng(20 + n)
        grid = np.linspace(-1.5, 1.5, proof_grid_size(n))
        if kind == "random":
            path = random_path(rng, n)
        elif kind == "anticrossings":
            path = anticrossing_path(rng, n)
        else:
            # all-up and all-down tie at lambda = 0, inside a proven chunk
            k = sweep_module.SEGMENT_CHUNKS * chunk_points(n) + chunk_points(n) + 1
            grid -= grid[k]
            path = fm_chain_path(n, delta=0.0)
        config = SweepConfig(path=path, grid=grid)
        reference = run_sweep(config)  # bitwise ground_states per point
        calls = count_proofs(monkeypatch)
        result = run_sweep(config, energies=False)
        assert sum(proven for proven, _ in calls) > grid.size // 2
        flags = result.degenerate_flags
        assert np.array_equal(flags, reference.degenerate_flags)
        assert flags.any() == (kind == "classical chain")
        sz, expected = result.sz_trajectories, reference.sz_trajectories
        assert np.isnan(sz[flags]).all()
        assert np.allclose(sz[~flags], expected[~flags], rtol=0, atol=1e-9)
        assert np.isnan(result.gaps).all()
        assert all(np.isnan(p.energies).all() and p.energies.shape == (2,) for p in result.points)

    def test_refused_points_take_the_ground_states_records(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 6
        config = SweepConfig(
            path=anticrossing_path(rng, n), grid=np.linspace(-1.0, 1.0, proof_grid_size(n))
        )
        reference = run_sweep(config)

        def refuse(H, start, deg_tol):
            return np.full(H.shape[:2], np.nan), np.zeros(len(H), dtype=bool)

        monkeypatch.setattr(sweep_module, "prove_ground_states", refuse)
        result = run_sweep(config, energies=False)
        for point, expected in zip(result.points, reference.points, strict=True):
            assert point.sz.tobytes() == expected.sz.tobytes()
            assert point.degenerate == expected.degenerate

    def test_each_segment_starts_on_the_eigenvalue_route(self, monkeypatch):
        n = 6
        grid = np.linspace(-1.0, 1.0, proof_grid_size(n))
        config = SweepConfig(path=fm_chain_path(n), grid=grid)
        size, chunk = config.grid.size, chunk_points(n)
        chunks = -(-size // chunk)
        firsts = range(0, size, sweep_module.SEGMENT_CHUNKS * chunk)
        stacks = []
        original = sweep_module.ground_states

        def counting(H, deg_tol):
            stacks.append(len(H))
            return original(H, deg_tol)

        monkeypatch.setattr(sweep_module, "ground_states", counting)
        calls = count_proofs(monkeypatch)
        pin_workers(monkeypatch, 1)
        run_sweep(config, energies=False)
        assert len(calls) == chunks - len(firsts)
        assert all(refused == 0 for _, refused in calls)  # a smooth path
        assert stacks == [min(chunk, size - first) for first in firsts]

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_threads_give_the_one_worker_records(self, monkeypatch, n):
        rng = np.random.default_rng(60 + n)
        grid = np.linspace(-1.5, 1.5, proof_grid_size(n))
        config = SweepConfig(path=anticrossing_path(rng, n), grid=grid)
        pin_workers(monkeypatch, 1)
        serial = sweep_records(config, energies=False)
        for workers in (2, 3):
            pin_workers(monkeypatch, workers)
            started = record_thread_starts(monkeypatch)
            assert sweep_records(config, energies=False) == serial
            assert len(started) == min(workers, 3) - 1
            assert not any(thread.is_alive() for thread in started)

    def test_certify_stdout_does_not_depend_on_the_workers(self, monkeypatch, tmp_path, capsys):
        from witness_lab.cli import main

        n = 6
        doc = {
            "system": {
                "n": n,
                "delta": [0.45, 0.35, 0.5, 0.4, 0.55, 0.3],
                "h": [0.05, -0.03, 0.08, -0.06, 0.02, 0.01],
                "couplings": [[i, i + 1, -1.0 - 0.1 * i] for i in range(n - 1)],
            },
            "sweep": {
                "direction": {"delta": [0.0] * n, "h": [1.0] * n, "couplings": []},
                "grid": {"start": -2.0, "stop": 2.0, "num": 2001},
            },
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        outputs = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            assert main(["certify", "--config", str(cfg)]) == 0
            outputs.append(capsys.readouterr())
        assert "\npath_nondegenerate,true\noracle_lambda,-" in outputs[0].out
        assert outputs[1:] == outputs[:1] * 2


class TestDetectAnticrossings:
    def test_single_qubit_minimum(self):
        config = SweepConfig(path=single_qubit_path(0.2), grid=np.linspace(-1, 1, 201))
        found = detect_anticrossings(run_sweep(config))
        assert len(found) == 1
        lam_star, gap_min = found[0]
        assert abs(lam_star) <= 1e-12
        assert abs(gap_min - 0.2) <= 1e-12

    def test_fm_pair_minimum_near_zero(self):
        config = SweepConfig(path=fm_pair_path(), grid=np.linspace(-2, 2, 201))
        found = detect_anticrossings(run_sweep(config))
        assert len(found) == 1
        lam_star, gap_min = found[0]
        assert abs(lam_star) <= 1e-6
        assert 0.0 < gap_min <= 0.0199

    def test_monotonic_gap_gives_empty(self):
        config = SweepConfig(path=single_qubit_path(0.2), grid=np.linspace(0.5, 1.5, 21))
        assert detect_anticrossings(run_sweep(config)) == []

    def test_refinement_beats_grid_resolution(self):
        # true minimum at lambda = 0.013 sits between grid points
        base = QubitSystem(delta=[0.2], h=[-0.013], J=np.zeros((1, 1)))
        config = SweepConfig(path=uniform_bias_path(base), grid=np.linspace(-1, 1, 41))
        found = detect_anticrossings(run_sweep(config))
        assert len(found) == 1
        lam_star, _ = found[0]
        grid_spacing = 0.05
        assert abs(lam_star - 0.013) < grid_spacing / 10.0

    def test_requires_three_points(self):
        config = SweepConfig(path=single_qubit_path(), grid=[-1.0, 0.0, 1.0])
        result = run_sweep(config)
        truncated = SweepResult(config=config, points=result.points[:2])
        with pytest.raises(ValueError, match="3 grid points"):
            detect_anticrossings(truncated)

    def test_skips_minima_next_to_degenerate_points(self):
        base = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        config = SweepConfig(
            path=uniform_bias_path(base), grid=np.linspace(-1, 1, 21)
        )
        result = run_sweep(config)
        assert result.degenerate_flags.any()
        assert detect_anticrossings(result) == []


class TestCertification:
    def test_coupled_everywhere_matches_per_point_threshold(self):
        # certify's pair selection: with every <sz_i> moving and no point
        # degenerate, the certified pairs are those coupled_pairs marks at
        # every grid point of the path.
        rng = np.random.default_rng(11)
        grid = np.linspace(-2, 2, 41)
        sz = np.sin(3.0 * grid[:, None] + np.arange(4))
        points = [SweepPoint(lam, None, np.nan, row, False) for lam, row in zip(grid, sz)]
        for trial in range(6):
            path = random_path(rng, 4)
            if trial % 2:
                # J_01 crosses zero exactly at the grid point lambda = 0
                base_J = np.array(path.base.J)
                base_J[0, 1] = base_J[1, 0] = 0.0
                path = AffinePath(
                    base=QubitSystem(delta=path.base.delta, h=path.base.h, J=base_J),
                    direction=path.direction,
                )
            result = SweepResult(config=SweepConfig(path=path, grid=grid), points=points)
            report = certify_entanglement_on_path(result)
            certified = [(i, j) for i, j, _, _ in report.certified_pairs]
            expected = [
                (i, j)
                for i in range(4)
                for j in range(i + 1, 4)
                if all(
                    abs(path.at(lam).J[i, j])
                    > 1e-12 * max(1.0, np.abs(path.at(lam).J).max())
                    for lam in grid
                )
            ]
            assert report.path_nondegenerate
            assert certified == expected
            if trial % 2:
                assert (0, 1) not in certified

    def test_pair_uncoupled_only_at_the_last_point_is_not_certified(self):
        # certify reads the coefficient grid a chunk at a time; J_01 = -1 +
        # lam / 2 is exactly 0 at the last of 5001 points, which lies
        # several chunks past the first at n = 4.
        n = 4
        J_base = -np.ones((n, n)) + np.eye(n)
        J_direction = np.zeros((n, n))
        J_direction[0, 1] = J_direction[1, 0] = 0.5
        path = AffinePath(
            base=QubitSystem(delta=np.full(n, 0.5), h=np.zeros(n), J=J_base),
            direction=QubitSystem(delta=np.zeros(n), h=np.ones(n), J=J_direction),
        )
        grid = np.linspace(-2, 2, 5001)
        assert grid.size > 2 * sweep_module.SWEEP_CHUNK_BYTES // (8 * n * n)
        assert path.at(grid[-1]).J[0, 1] == 0.0
        sz = np.sin(3.0 * grid[:, None] + np.arange(n))
        points = [SweepPoint(lam, None, np.nan, row, False) for lam, row in zip(grid, sz)]
        result = SweepResult(config=SweepConfig(path=path, grid=grid), points=points)
        certified = [(i, j) for i, j, _, _ in certify_entanglement_on_path(result).certified_pairs]
        assert certified == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_invalid_tolerances_rejected(self):
        config = SweepConfig(path=fm_pair_path(), grid=np.linspace(-2, 2, 21))
        result = run_sweep(config)
        for var_tol in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="var_tol"):
                certify_entanglement_on_path(result, var_tol=var_tol)
        # the confirming point comes from structure: no Schmidt tolerance
        with pytest.raises(TypeError, match="schmidt_tol"):
            certify_entanglement_on_path(result, schmidt_tol=1e-7)

    def test_fm_pair_certifies_with_oracle_confirmation(self):
        config = SweepConfig(path=fm_pair_path(), grid=np.linspace(-2, 2, 201))
        result = run_sweep(config)
        report = certify_entanglement_on_path(result, var_tol=0.5)
        assert report.path_nondegenerate
        assert len(report.certified_pairs) == 1
        i, j, var_i, var_j = report.certified_pairs[0]
        assert (i, j) == (0, 1)
        assert var_i > 0.5 and var_j > 0.5
        assert report.oracle_confirmation is not None
        assert abs(report.oracle_confirmation) <= 0.1

    def test_uncoupled_sweep_never_certifies(self):
        base = QubitSystem(delta=[0.2, 0.2], h=[0.0, 0.0], J=np.zeros((2, 2)))
        config = SweepConfig(path=uniform_bias_path(base), grid=np.linspace(-2, 2, 51))
        result = run_sweep(config)
        report = certify_entanglement_on_path(result, var_tol=0.5)
        # both qubits swing through the anticrossing, but no coupling exists
        variations = np.abs(np.diff(result.sz_trajectories, axis=0)).sum(axis=0)
        assert np.all(variations > 0.5)
        assert report.certified_pairs == []
        assert report.path_nondegenerate
        assert report.oracle_confirmation is None

    def test_pinned_qubit_escapes_certification(self):
        base = QubitSystem.from_couplings([1.0, 0.0], [0.3, 5.0], [(0, 1, 0.4)])
        direction = QubitSystem(delta=[0.0, 0.0], h=[0.0, 1.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction),
            grid=np.linspace(-1, 1, 51),
        )
        result = run_sweep(config)
        report = certify_entanglement_on_path(result, var_tol=0.1)
        variations = np.abs(np.diff(result.sz_trajectories, axis=0)).sum(axis=0)
        assert variations[1] <= 1e-9  # the pinned qubit never moves
        assert report.certified_pairs == []
        assert report.path_nondegenerate  # a classical qubit that never flips

    @pytest.mark.parametrize(
        "base, num",
        [
            # lambda = 0, where the two classical sectors cross, is off the grid
            (QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)]), 20),
            (
                QubitSystem.from_couplings(
                    [0.0] * 3, [0.3, 0.0, 0.0], [(0, 1, -1.0), (1, 2, -1.0)]
                ),
                200,
            ),
            # one quantum qubit: qubit 1's sz still jumps between grid points
            (QubitSystem.from_couplings([0.4, 0.0], [0.0, 0.0], [(0, 1, -1.0)]), 20),
        ],
    )
    def test_classical_qubit_flip_voids_certification(self, base, num):
        config = SweepConfig(path=uniform_bias_path(base), grid=np.linspace(-1, 1, num))
        for energies in (True, False):
            result = run_sweep(config, energies=energies)
            assert not result.degenerate_flags.any()
            report = certify_entanglement_on_path(result)
            assert not report.path_nondegenerate
            assert report.certified_pairs == []
            assert report.oracle_confirmation is None

    def test_flip_rule_needs_delta_zero_on_the_whole_path(self):
        # Qubit 1 has delta = 0 at the base only: the direction gives it
        # tunneling, so its sz may turn continuously and nothing is voided.
        base = QubitSystem.from_couplings([0.4, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        direction = QubitSystem(delta=[0.0, 0.5], h=[1.0, 1.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction), grid=np.linspace(0.05, 1, 20)
        )
        report = certify_entanglement_on_path(run_sweep(config))
        assert report.path_nondegenerate

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_lambda_ends_the_steepest_step(self, seed):
        # Every qubit is quantum on the whole path, so the first point of
        # the step of largest <sz> change is the confirming point.
        rng = np.random.default_rng(seed)
        n = 4
        couplings = [(i, i + 1, -float(rng.uniform(0.8, 1.2))) for i in range(n - 1)]
        base = QubitSystem.from_couplings(
            rng.uniform(0.3, 0.5, n), rng.uniform(-0.1, 0.1, n), couplings
        )
        config = SweepConfig(path=uniform_bias_path(base), grid=np.linspace(-1, 1, 401))
        result = run_sweep(config, energies=False)
        report = certify_entanglement_on_path(result)
        steps = np.abs(np.diff(result.sz_trajectories, axis=0)).sum(axis=1)
        lam = report.oracle_confirmation
        assert lam == config.grid[np.argmax(steps)]
        delta = config.path.at(lam).delta
        assert any(delta[i] != 0.0 and delta[j] != 0.0 for i, j, _, _ in report.certified_pairs)

    def test_oracle_lambda_skips_a_point_where_the_pair_is_classical(self):
        # delta_0 = lambda vanishes at 0.0, the first point of the steepest
        # step, across which qubit 1 flips. There the ground state is a
        # product, so the rule takes the step's second point.
        base = QubitSystem.from_couplings([0.0, 0.05], [0.3, -0.35], [(0, 1, -0.5)])
        direction = QubitSystem(delta=[1.0, 0.0], h=[0.0, 1.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction), grid=np.linspace(-1, 1, 21)
        )
        result = run_sweep(config, energies=False)
        steps = np.abs(np.diff(result.sz_trajectories, axis=0)).sum(axis=1)
        k = int(np.argmax(steps))
        assert config.grid[k] == 0.0
        report = certify_entanglement_on_path(result)
        assert [pair[:2] for pair in report.certified_pairs] == [(0, 1)]
        assert report.oracle_confirmation == config.grid[k + 1]
        for lam, product in ((config.grid[k], True), (config.grid[k + 1], False)):
            spec = diagonalize(build_hamiltonian(config.path.at(lam)))
            assert is_fully_separable(ground_state(spec).vector) == product

    def test_degenerate_path_voids_certification(self):
        base = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        config = SweepConfig(path=uniform_bias_path(base), grid=np.linspace(-1, 1, 21))
        result = run_sweep(config)
        report = certify_entanglement_on_path(result)
        assert not report.path_nondegenerate
        assert report.certified_pairs == []
        assert report.oracle_confirmation is None

    def test_certification_soundness_against_oracle(self):
        # whenever a pair certifies, the oracle must find a non-separable
        # ground state somewhere on the grid
        rng = np.random.default_rng(14)
        certified_seen = 0
        for _ in range(12):
            n = int(rng.integers(2, 4))
            couplings = [
                (i, j, float(rng.uniform(-1, 1)))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            base = QubitSystem.from_couplings(
                rng.uniform(0.1, 0.5, n), rng.uniform(-0.2, 0.2, n), couplings
            )
            config = SweepConfig(
                path=uniform_bias_path(base), grid=np.linspace(-1.5, 1.5, 61)
            )
            result = run_sweep(config)
            report = certify_entanglement_on_path(result)
            if not report.certified_pairs:
                continue
            certified_seen += 1
            assert report.oracle_confirmation is not None
            lam = report.oracle_confirmation
            from witness_lab import build_hamiltonian, diagonalize, ground_state

            spec = diagonalize(build_hamiltonian(config.path.at(lam)))
            assert not is_fully_separable(ground_state(spec).vector)
        assert certified_seen >= 3

    def test_oracle_lambda_is_a_structurally_entangled_grid_point(self):
        # Random paths on which qubits are classical throughout, quantum
        # throughout, or classical and nearly unbiased at one grid point g
        # (delta_i = lambda - g, h_i ~ (lambda - g) s_i), so that the
        # steepest <sz> step may start at a point where a pair is classical:
        # the confirming point is a grid value at which a certified pair is
        # quantum and coupled, so {i}|rest is entangled there.
        rng = np.random.default_rng(19)
        grid = np.linspace(-1.0, 1.0, 41)
        certified_seen = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            base = random_system_with_classical_qubits(rng, n)
            roots = rng.choice(grid, n)
            moving = rng.random(n) < 0.4
            slope = rng.uniform(-1.0, 1.0, n)
            direction = QubitSystem(delta=moving * 1.0, h=slope, J=np.zeros((n, n)))
            base = QubitSystem(
                delta=np.where(moving, -roots, base.delta),
                h=np.where(moving, -roots * slope, base.h),
                J=base.J,
            )
            path = AffinePath(base=base, direction=direction)
            report = certify_entanglement_on_path(
                run_sweep(SweepConfig(path=path, grid=grid), energies=False)
            )
            if not report.certified_pairs:
                continue
            certified_seen += 1
            lam = report.oracle_confirmation
            assert lam in grid.tolist()
            system = path.at(lam)
            coupled = coupled_pairs(system.J)
            assert any(
                system.delta[i] != 0.0
                and system.delta[j] != 0.0
                and coupled[i, j]
                and structurally_entangled(system, Bipartition(mask=1 << i, n=n))
                for i, j, _, _ in report.certified_pairs
            )
        assert certified_seen >= 5

    @pytest.mark.xfail(
        strict=True,
        reason="qubit 0's sectors cross twice between two grid points (ROADMAP item 2)",
    )
    def test_even_number_of_sector_crossings_voids_certification(self, tmp_path, capsys):
        # Qubit 0 is classical on the whole path. A 20001-point scan of its
        # two sectors finds them crossing at lambda ~ 0.4172 and 0.5902,
        # both between the grid points 0.4 and 0.6, so its <sz> does not
        # flip between grid points and the flip rule misses the crossings.
        from witness_lab.cli import main

        doc = {
            "system": {
                "n": 3,
                "delta": [0.0, 0.5927, 0.4808],
                "h": [0.412, 0.3041, -0.2191],
                "couplings": [[0, 1, 0.6165], [1, 2, -1.6483]],
            },
            "sweep": {
                "direction": {"delta": [0, 0, 0], "h": [0.3346, 1.0, 0.1469], "couplings": []},
                "grid": {"start": -1.0, "stop": 1.0, "num": 11},
            },
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code = main(["certify", "--config", str(cfg)])
        assert "\npath_nondegenerate,false\n" in capsys.readouterr().out
        assert code == 3

    def test_fm_chain_endpoints_polarized(self):
        config = SweepConfig(path=fm_chain_path(3), grid=np.linspace(-2, 2, 101))
        result = run_sweep(config)
        first, last = result.points[0], result.points[-1]
        assert np.all(np.abs(first.sz) >= 0.9)
        assert np.all(np.abs(last.sz) >= 0.9)
        assert np.all(np.sign(first.sz) == -np.sign(last.sz))
