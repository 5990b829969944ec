import numpy as np
import pytest

import witness_lab.sweep as sweep_module
from witness_lab import (
    AffinePath,
    DegenerateGroundError,
    QubitSystem,
    SweepConfig,
    SweepResult,
    build_hamiltonian,
    certify_entanglement_on_path,
    detect_anticrossings,
    diagonalize,
    ground_state,
    is_fully_separable,
    run_sweep,
    sigma_z_profile,
    witness_report,
)


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


def per_point_sweep(config, deg_tol=None, fd_step=None):
    """Reference sweep with one ``QubitSystem`` and one ``build_hamiltonian``
    per grid point, as ``(lam, energies, gap, sz, degenerate, witnesses)``."""
    records = []
    for lam in config.grid:
        system = config.path.at(lam)
        spec = diagonalize(build_hamiltonian(system))
        try:
            sz = sigma_z_profile(ground_state(spec, deg_tol).vector)
            degenerate = False
        except DegenerateGroundError:
            sz = np.full(system.n, np.nan)
            degenerate = True
        witnesses = None
        if config.compute_witnesses and not degenerate:
            witnesses = witness_report(
                spec, system, deg_tol, path=config.path, lambda0=lam, fd_step=fd_step
            )
        energies = np.array(spec.energies[: config.track_levels])
        gap = float(spec.energies[1] - spec.energies[0])
        records.append((float(lam), energies, gap, sz, degenerate, witnesses))
    return records


def report_key(report):
    if report is None:
        return None
    cuts = [(c.partition.mask, c.n_ab, c.w_tilde, c.w_ab) for c in report.cuts]
    return cuts, report.w_lambda, report.w_global


def assert_bitwise_equal_to_reference(config, **kwargs):
    result = run_sweep(config, **kwargs)
    reference = per_point_sweep(config, **kwargs)
    assert len(result.points) == len(reference) == config.grid.size
    for point, (lam, energies, gap, sz, degenerate, witnesses) in zip(
        result.points, reference
    ):
        assert point.lam == lam
        assert point.energies.tobytes() == energies.tobytes()
        assert np.float64(point.gap).tobytes() == np.float64(gap).tobytes()
        assert point.sz.tobytes() == sz.tobytes()  # NaN payloads included
        assert point.degenerate == degenerate
        assert report_key(point.witnesses) == report_key(witnesses)
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

    def test_witness_reports_attached_on_request(self):
        config = SweepConfig(
            path=fm_pair_path(), grid=[-0.5, 0.0, 0.5], compute_witnesses=True
        )
        result = run_sweep(config)
        for point in result.points:
            assert point.witnesses is not None
            assert len(point.witnesses.cuts) == 1
            assert point.witnesses.w_lambda is not None
        # at the anticrossing both the cut and path witnesses fire
        center = result.points[1].witnesses
        assert abs(center.cuts[0].w_tilde) > 0.1
        assert center.w_lambda > 0.1

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

    def test_witness_reports_match(self):
        rng = np.random.default_rng(9)
        config = SweepConfig(
            path=random_path(rng, 3), grid=np.linspace(-1, 1, 5), compute_witnesses=True
        )
        assert_bitwise_equal_to_reference(config, fd_step=1e-3)
        base = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        config = SweepConfig(
            path=uniform_bias_path(base), grid=[-1.0, 0.0, 1.0], compute_witnesses=True
        )
        result = assert_bitwise_equal_to_reference(config)
        assert result.points[1].degenerate and result.points[1].witnesses is None

    def test_nonfinite_interior_point_rejected(self):
        base = QubitSystem(delta=[0.5, 0.5], h=[1e308, 0.0], J=np.zeros((2, 2)))
        direction = QubitSystem(delta=[0.0, 0.0], h=[1e308, 0.0], J=np.zeros((2, 2)))
        config = SweepConfig(
            path=AffinePath(base=base, direction=direction), grid=np.linspace(-1, 2, 31)
        )
        with pytest.raises(ValueError, match="not finite"):
            run_sweep(config)


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
        rng = np.random.default_rng(11)
        grid = np.linspace(-2, 2, 41)
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
            result = SweepResult(config=SweepConfig(path=path, grid=grid), points=[])
            coupled = sweep_module._coupled_everywhere(result)
            for i in range(4):
                for j in range(4):
                    expected = all(
                        abs(path.at(lam).J[i, j])
                        > 1e-12 * max(1.0, np.abs(path.at(lam).J).max())
                        for lam in grid
                    )
                    assert coupled[i, j] == expected
            if trial % 2:
                assert not coupled[0, 1]

    def test_invalid_tolerances_rejected(self):
        config = SweepConfig(path=fm_pair_path(), grid=np.linspace(-2, 2, 21))
        result = run_sweep(config)
        for var_tol in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="var_tol"):
                certify_entanglement_on_path(result, var_tol=var_tol)
        for schmidt_tol in (0.0, 1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="schmidt_tol"):
                certify_entanglement_on_path(result, schmidt_tol=schmidt_tol)

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

    def test_fm_chain_endpoints_polarized(self):
        config = SweepConfig(path=fm_chain_path(3), grid=np.linspace(-2, 2, 101))
        result = run_sweep(config)
        first, last = result.points[0], result.points[-1]
        assert np.all(np.abs(first.sz) >= 0.9)
        assert np.all(np.abs(last.sz) >= 0.9)
        assert np.all(np.sign(first.sz) == -np.sign(last.sz))
