import json
import subprocess
import sys

import numpy as np
import pytest

from witness_lab import (
    QubitSystem,
    build_hamiltonian,
    diagonalize,
    witness_report,
)
import witness_lab.cli as cli
from witness_lab.cli import MAX_GRID_POINTS, load_config, main, parse_config
from witness_lab.spectrum import eigenvalues


# JSON values that are not JSON numbers: a bool is not 1.0 or 0.0, and a
# numeric string is not its value.
NOT_NUMBERS = [True, False, "0.5", "1e-3", "-1", "nan"]


def write_config(tmp_path, document, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FM_PAIR = {
    "system": {
        "n": 2,
        "delta": [0.2, 0.2],
        "h": [0.0, 0.0],
        "couplings": [[0, 1, -1.0]],
    },
    "sweep": {
        "direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []},
        "grid": {"start": -2.0, "stop": 2.0, "num": 201},
        "track_levels": 2,
    },
}

UNCOUPLED_PAIR = {
    "system": {"n": 2, "delta": [0.2, 0.2], "h": [0.0, 0.0], "couplings": []},
    "sweep": {
        "direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []},
        "grid": {"start": -2.0, "stop": 2.0, "num": 51},
    },
}

CLASSICAL_DEGENERATE = {
    "system": {
        "n": 2,
        "delta": [0.0, 0.0],
        "h": [0.0, 0.0],
        "couplings": [[0, 1, -1.0]],
    },
    "sweep": {
        "direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []},
        "grid": {"start": -1.0, "stop": 1.0, "num": 21},
    },
}

PINNED = {
    "system": {
        "n": 2,
        "delta": [1.0, 0.0],
        "h": [0.3, 5.0],
        "couplings": [[0, 1, 0.4]],
    }
}

TRIANGLE = {
    "system": {
        "n": 3,
        "delta": [0.2, 0.2, 0.2],
        "h": [0.0, 0.0, 0.0],
        "couplings": [[0, 1, -1.0], [0, 2, -1.0], [1, 2, -1.0]],
    }
}


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**PINNED, "extra": 1})
        code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 2
        assert "unknown key" in err

    def test_unknown_nested_key(self, tmp_path, capsys):
        doc = {"system": {**PINNED["system"], "bias": [0.0, 0.0]}}
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 2
        assert "unknown key" in err

    def test_missing_system(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {}})
        code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert err == "config error: config nests too deeply to parse\n"
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
    def test_config_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"system": "\xff\xfe"}')
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert err.startswith("config error: config is not valid UTF-8: ")
        assert err.count("\n") == 1
        assert out == ""

    def test_reversed_coupling_indices(self, tmp_path, capsys):
        doc = {
            "system": {
                "n": 2,
                "delta": [1.0, 1.0],
                "h": [0.0, 0.0],
                "couplings": [[1, 0, 0.4]],
            }
        }
        code, _, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc))
        assert code == 2

    def test_duplicate_coupling(self, tmp_path, capsys):
        doc = {
            "system": {
                "n": 2,
                "delta": [1.0, 1.0],
                "h": [0.0, 0.0],
                "couplings": [[0, 1, 0.4], [0, 1, 0.5]],
            }
        }
        code, _, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "duplicate" in err

    def test_size_mismatch(self, tmp_path, capsys):
        doc = {"system": {"n": 3, "delta": [1.0, 1.0], "h": [0.0, 0.0, 0.0]}}
        code, _, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc))
        assert code == 2

    def test_unsupported_format(self, tmp_path, capsys):
        # the output is always CSV: a format key, even "csv", is unknown
        for value in ("xml", "csv"):
            cfg = write_config(tmp_path, {**PINNED, "format": value})
            code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
            assert code == 2
            assert err == "config error: unknown key(s) in config: format\n"
            assert out == ""

    @pytest.mark.parametrize("value", ["x", None, *NOT_NUMBERS])
    def test_non_numeric_coupling_value(self, tmp_path, capsys, value):
        doc = {"system": {**PINNED["system"], "couplings": [[0, 1, value]]}}
        code, _, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "couplings value must be a number" in err

    @pytest.mark.parametrize("value", [{}, [1], "x", None, *NOT_NUMBERS])
    @pytest.mark.parametrize(
        "where", ["system", "sweep.direction", "witness.lambda_direction"]
    )
    @pytest.mark.parametrize("field", ["delta", "h"])
    def test_non_numeric_delta_or_h_entry(self, tmp_path, capsys, value, where, field):
        doc = json.loads(json.dumps(CONSTANT_PATH))
        block = doc
        for key in where.split("."):
            block = block[key]
        block[field][0] = value
        command = "sweep" if where == "sweep.direction" else "witness"
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert f"{where}.{field} entry must be a number" in err
        assert out == ""

    def assert_not_a_number(self, tmp_path, capsys, command, doc, where, value):
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"config error: {where} must be a number, got {value!r}\n"

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("key", ["start", "stop", "values"])
    def test_bool_or_string_grid_number_exits_2(self, tmp_path, capsys, key, value):
        grid = {"start": -1.0, "stop": 1.0, "num": 5}
        if key == "values":
            grid, where = {"values": [-1.0, value, 1.0]}, "sweep.grid.values entry"
        else:
            grid[key], where = value, f"sweep.grid.{key}"
        doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "grid": grid}}
        self.assert_not_a_number(tmp_path, capsys, "sweep", doc, where, value)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_bool_or_string_lambda0_exits_2(self, tmp_path, capsys, value):
        doc = {**CONSTANT_PATH, "witness": {**CONSTANT_PATH["witness"], "lambda0": value}}
        self.assert_not_a_number(tmp_path, capsys, "witness", doc, "witness.lambda0", value)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("key", ["deg_tol", "var_tol"])
    def test_bool_or_string_tolerance_exits_2(self, tmp_path, capsys, key, value):
        doc = {**FM_PAIR, "tolerances": {key: value}}
        self.assert_not_a_number(tmp_path, capsys, "certify", doc, f"tolerances.{key}", value)

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        text = json.dumps(PINNED).replace("5.0", "1" + "0" * 400)
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 2
        assert "system.h entry must be a number" in err
        assert out == ""

    def test_negative_grid_num(self, tmp_path, capsys):
        doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "grid": {"start": -1.0, "stop": 1.0, "num": -5}}}
        code, _, err = run_cli(capsys, "sweep", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "num must be a nonnegative integer" in err

    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
    def test_oversized_grid_exits_2_before_allocating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_linspace(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(cli.np, "linspace", no_linspace)
        for num in (MAX_GRID_POINTS + 1, 10**12):
            grid = {"start": -1.0, "stop": 1.0, "num": num}
            doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "grid": grid}}
            code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
            assert (code, out) == (2, "")
            assert err == f"config error: sweep.grid.num must be at most 100000, got {num}\n"
        grid = {"values": [0.0] * (MAX_GRID_POINTS + 1)}
        doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "grid": grid}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert (code, out) == (2, "")
        assert "sweep.grid.values has 100001 entries, more than 100000" in err

    def test_grid_of_the_cap_size_is_accepted(self):
        for grid in (
            {"values": [0.0] * MAX_GRID_POINTS},
            {"start": -1.0, "stop": 1.0, "num": MAX_GRID_POINTS},
        ):
            doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "grid": grid}}
            assert parse_config(doc).grid.size == MAX_GRID_POINTS

    def test_sweep_command_requires_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PINNED)
        for command in ("sweep", "certify"):
            code, _, err = run_cli(capsys, command, "--config", cfg)
            assert code == 2
            assert "sweep block" in err


class TestSpectrumCommand:
    def test_rows_match_library_exactly(self, tmp_path, capsys):
        doc = {"system": {"n": 1, "delta": [1.0], "h": [0.0], "couplings": []}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "level,energy"
        system = QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1)))
        energies = diagonalize(build_hamiltonian(system)).energies
        assert len(lines) == 3
        for k, line in enumerate(lines[1:]):
            level, value = line.split(",")
            assert int(level) == k
            assert float(value) == energies[k]

    def test_levels_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "spectrum", "--config", cfg, "--levels", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_triangle_matches_library_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 0
        emitted = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        system = QubitSystem.from_couplings(
            [0.2, 0.2, 0.2], [0.0, 0.0, 0.0], [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)]
        )
        H = build_hamiltonian(system)
        energies = diagonalize(H).energies
        assert len(emitted) == 8
        assert np.all(np.diff(emitted) >= 0.0)
        # The command prints the eigenvalue-only step exactly; the full
        # decomposition agrees to rounding.
        assert emitted == list(eigenvalues(H[None])[0])
        assert np.abs(np.array(emitted) - energies).max() <= 1e-12 * np.abs(energies).max()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sweep_rows_are_the_spectrum_levels(self, tmp_path, capsys, n):
        # Sweeps and the spectrum command share one eigenvalue-only step, so
        # a sweep row at lambda prints bitwise the levels of path.at(lambda).
        rng = np.random.default_rng(40 + n)
        couplings = [[i, j, float(rng.uniform(-1, 1))] for i in range(n) for j in range(i + 1, n)]
        system = {"n": n, "delta": rng.uniform(-1, 1, n).tolist(),
                  "h": rng.uniform(-1, 1, n).tolist(), "couplings": couplings}
        direction = {"delta": rng.uniform(-0.5, 0.5, n).tolist(),
                     "h": rng.uniform(-1, 1, n).tolist(),
                     "couplings": [[i, j, 0.5 * v] for i, j, v in couplings]}
        doc = {"system": system,
               "sweep": {"direction": direction, "grid": {"start": -1.0, "stop": 1.0, "num": 9}}}
        dim = 1 << n
        code, out, _ = run_cli(
            capsys, "sweep", "--config", write_config(tmp_path, doc), "--levels", str(dim)
        )
        assert code == 0
        config = load_config(write_config(tmp_path, doc))
        for row in out.splitlines()[1:]:
            fields = row.split(",")
            point = config.sweep_path.at(float(fields[0]))
            point_doc = {"system": {
                "n": n, "delta": point.delta.tolist(), "h": point.h.tolist(),
                "couplings": [[i, j, float(point.J[i, j])]
                              for i in range(n) for j in range(i + 1, n)],
            }}
            code, levels, _ = run_cli(
                capsys, "spectrum", "--config", write_config(tmp_path, point_doc, "point.json")
            )
            assert code == 0
            assert fields[1 : 1 + dim] == [line.split(",")[1] for line in levels.splitlines()[1:]]

    def test_ground_flag_reports_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PINNED)
        code, out, _ = run_cli(capsys, "spectrum", "--config", cfg, "--ground")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("gap,")

    def test_ground_flag_degenerate_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLASSICAL_DEGENERATE)
        code, out, err = run_cli(capsys, "spectrum", "--config", cfg, "--ground")
        assert code == 3
        assert "DegenerateGround" in err
        assert out == ""


class TestWitnessCommand:
    def test_uncoupled_pair_all_zero(self, tmp_path, capsys):
        doc = {"system": {"n": 2, "delta": [0.2, 0.2], "h": [0.1, -0.3], "couplings": []}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "witness", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mask_hex,n_ab,w_tilde,w_ab"
        assert lines[1] == "0x1,0,0.0,0.0"
        assert lines[2] == "global,,,0.0"

    def test_pinned_instance_silent(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PINNED)
        code, out, _ = run_cli(capsys, "witness", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        _, n_ab, w_tilde, w_ab = lines[1].split(",")
        assert n_ab == "1"
        assert abs(float(w_tilde)) <= 1e-8
        trailer = lines[-1].split(",")
        assert trailer[0] == "global"
        assert abs(float(trailer[3])) <= 1e-8

    def test_triangle_all_cuts_fire(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "witness", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + 3 cuts + global trailer
        for line in lines[1:4]:
            mask_hex, n_ab, w_tilde, w_ab = line.split(",")
            assert int(mask_hex, 16) in (1, 3, 5)
            assert int(n_ab) == 2
            assert abs(float(w_tilde)) > 0.1
            assert 0.0 < float(w_ab) < 1.0
        w_global = float(lines[4].split(",")[3])
        assert 0.0 < w_global < 1.0

    def test_matches_library_to_last_digit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIANGLE)
        code, out, _ = run_cli(capsys, "witness", "--config", cfg)
        system = QubitSystem.from_couplings(
            [0.2, 0.2, 0.2], [0.0, 0.0, 0.0], [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)]
        )
        report = witness_report(diagonalize(build_hamiltonian(system)), system)
        lines = out.strip().split("\n")
        for cut, line in zip(report.cuts, lines[1:4]):
            _, _, w_tilde, w_ab = line.split(",")
            assert float(w_tilde) == cut.w_tilde
            assert float(w_ab) == cut.w_ab
        assert float(lines[4].split(",")[3]) == report.w_global

    def test_lambda_row_on_request(self, tmp_path, capsys):
        doc = {
            **FM_PAIR,
            "witness": {
                "lambda_direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []},
                "lambda0": 0.0,
            },
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "witness", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        lambda_row = [line for line in lines if line.startswith("lambda,")]
        assert len(lambda_row) == 1
        assert float(lambda_row[0].split(",")[3]) > 0.1
        assert lines[-1].startswith("global,")

    @pytest.mark.parametrize("bias", [1e200, 1e308])
    def test_overflowing_lambda_row_exits_2(self, tmp_path, capsys, bias):
        direction = {"delta": [0.0, 0.0], "h": [bias, bias], "couplings": []}
        doc = {**FM_PAIR, "witness": {"lambda_direction": direction}}
        code, out, err = run_cli(capsys, "witness", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert err.startswith("config error: ") and "overflows" in err
        assert "Warning" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "lambda0, shown", [(1e308, "1e+308"), (float("inf"), "inf"), (float("nan"), "nan")]
    )
    def test_nonfinite_lambda0_point_exits_2(self, tmp_path, capsys, lambda0, shown):
        # the path point at lambda0 comes from AffinePath.coefficients,
        # which names the lambda whose coefficients are not finite
        direction = {"delta": [0.0, 0.0], "h": [4.0, 4.0], "couplings": []}
        doc = {**FM_PAIR, "witness": {"lambda_direction": direction, "lambda0": lambda0}}
        code, out, err = run_cli(capsys, "witness", "--config", write_config(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"config error: path coefficients are not finite at lambda={shown}\n"

    def test_degenerate_ground_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLASSICAL_DEGENERATE)
        code, out, err = run_cli(capsys, "witness", "--config", cfg)
        assert code == 3
        assert "DegenerateGround" in err

    @pytest.mark.parametrize("deg_tol", [-1.0, 0.0])
    def test_nonpositive_deg_tol_exits_2(self, tmp_path, capsys, deg_tol):
        doc = {**CLASSICAL_DEGENERATE, "tolerances": {"deg_tol": deg_tol}}
        code, out, err = run_cli(capsys, "witness", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "deg_tol must be positive" in err
        assert out == ""


class TestSweepCommand:
    def test_csv_shape_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FM_PAIR)
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,E0,E1,gap,sz_0,sz_1,degenerate"
        assert len(lines) == 202
        assert all(line.endswith(",false") for line in lines[1:])
        assert "anticrossing lambda=0.0" in err

    def test_degenerate_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLASSICAL_DEGENERATE)
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        flags = {float(r[0]): r[-1] for r in rows}
        assert flags[0.0] == "true"
        assert flags[1.0] == "false"

    def test_degenerate_row_prints_empty_sz_fields(self, tmp_path, capsys):
        doc = {**CLASSICAL_DEGENERATE, "sweep": {**CLASSICAL_DEGENERATE["sweep"],
                                                 "grid": {"values": [-1.0, 0.0, 1.0]}}}
        code, out, _ = run_cli(capsys, "sweep", "--config", write_config(tmp_path, doc))
        assert code == 0
        assert out.splitlines()[2] == "0.0,-1.0,-1.0,0.0,,,true"
        assert "nan" not in out

    def test_constant_path_identical_rows(self, tmp_path, capsys):
        doc = {
            "system": {"n": 1, "delta": [1.0], "h": [0.2], "couplings": []},
            "sweep": {
                "direction": {"delta": [0.0], "h": [0.0], "couplings": []},
                "grid": {"values": [-1.0, 0.0, 1.0]},
            },
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        rows = [line.split(",", 1)[1] for line in out.strip().split("\n")[1:]]
        assert rows[0] == rows[1] == rows[2]

    def test_out_file_with_lf_endings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FM_PAIR)
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert code == 0
        assert out == ""
        data = out_path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert data.decode().count("\n") == 202


class TestOutPath:
    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
    @pytest.mark.parametrize("target", ["missing_dir/x.csv", "."])
    def test_unwritable_out_path_exits_2(self, tmp_path, capsys, command, target):
        # a file in a directory that does not exist, and a directory
        cfg = write_config(tmp_path, FM_PAIR)
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, command, "--config", cfg, "--out", str(out_path))
        assert code == 2
        assert err.startswith("output error: ")
        assert err.count("\n") == 1
        assert out == ""


class TestCertifyCommand:
    def test_fm_pair_certifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FM_PAIR)
        code, out, _ = run_cli(capsys, "certify", "--config", cfg, "--var-tol", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,var_i,var_j"
        pair = lines[1].split(",")
        assert pair[0] == "0" and pair[1] == "1"
        assert float(pair[2]) > 0.5 and float(pair[3]) > 0.5
        assert "path_nondegenerate,true" in lines
        oracle = [line for line in lines if line.startswith("oracle_lambda,")]
        assert len(oracle) == 1 and oracle[0] != "oracle_lambda,"

    def test_uncoupled_clean_negative(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNCOUPLED_PAIR)
        code, out, _ = run_cli(capsys, "certify", "--config", cfg)
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[1] == "path_nondegenerate,true"
        assert lines[2] == "oracle_lambda,"

    def test_nonpositive_deg_tol_exits_2(self, tmp_path, capsys):
        doc = {**FM_PAIR, "tolerances": {"deg_tol": -1.0}}
        code, out, err = run_cli(capsys, "certify", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "deg_tol must be positive" in err

    @pytest.mark.parametrize("track_levels", [1, 5, 2])
    def test_track_levels_is_not_used(self, tmp_path, capsys, track_levels):
        # certify records no energies; sweep refuses 1 and 5 at n = 2
        doc = {**FM_PAIR, "sweep": {**FM_PAIR["sweep"], "track_levels": track_levels}}
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(capsys, "certify", "--config", cfg)
        default = write_config(tmp_path, FM_PAIR, "ok.json")
        assert (code, out, err) == run_cli(capsys, "certify", "--config", default)
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == (0 if track_levels == 2 else 2)

    def test_degenerate_path_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLASSICAL_DEGENERATE)
        code, out, _ = run_cli(capsys, "certify", "--config", cfg)
        assert code == 3
        assert "path_nondegenerate,false" in out


CONSTANT_PATH = {
    "system": {"n": 2, "delta": [0.2, 0.2], "h": [0.1, 0.0], "couplings": [[0, 1, -1.0]]},
    "sweep": {
        "direction": {"delta": [0.0, 0.0], "h": [0.0, 0.0], "couplings": []},
        "grid": {"start": -1.0, "stop": 1.0, "num": 5},
    },
    "witness": {
        "lambda_direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []}
    },
}

COMMANDS = ("spectrum", "witness", "sweep", "certify")


class TestTolerances:
    def test_negative_var_tol_does_not_certify_a_constant_path(self, tmp_path, capsys):
        # with var_tol = -1 the zero variation of a constant path exceeded it
        doc = {**CONSTANT_PATH, "tolerances": {"var_tol": -1.0}}
        code, out, err = run_cli(capsys, "certify", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "var_tol must be positive and finite" in err
        assert out == ""
        code, out, _ = run_cli(
            capsys, "certify", "--config", write_config(tmp_path, CONSTANT_PATH, "ok.json")
        )
        assert code == 1

    def test_nan_var_tol_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FM_PAIR)
        code, out, err = run_cli(capsys, "certify", "--config", cfg, "--var-tol", "nan")
        assert code == 2
        assert "var_tol must be positive and finite, got nan" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["1e999", "1.0", "0.0", "-1e-7"])
    def test_schmidt_tol_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        # schmidt_tol left with the Schmidt search of certify: an unknown
        # key, whatever its value
        text = json.dumps(FM_PAIR)[:-1] + f', "tolerances": {{"schmidt_tol": {value}}}}}'
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "certify", "--config", str(path))
        assert code == 2
        assert err == "config error: unknown key(s) in tolerances: schmidt_tol\n"
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_schmidt_tol_exits_2_on_every_command(self, tmp_path, capsys, command):
        doc = {**CONSTANT_PATH, "tolerances": {"schmidt_tol": 1e-7}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert err == "config error: unknown key(s) in tolerances: schmidt_tol\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["certify", "witness"])
    def test_negative_fd_step_exits_2_on_every_command(self, tmp_path, capsys, command):
        # the lambda row is the exact path response: fd_step is no key,
        # whatever its value
        for value in (-1.0, 1e-4):
            doc = {**CONSTANT_PATH, "tolerances": {"fd_step": value}}
            code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
            assert code == 2
            assert err == "config error: unknown key(s) in tolerances: fd_step\n"
            assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "key,value,message",
        [
            pytest.param(
                "deg_tol", "inf", "deg_tol must be positive and finite", id="deg_tol-inf"
            ),
            pytest.param("var_tol", "0", "var_tol must be positive and finite", id="var_tol-0"),
            # --fd-step is no flag: argparse refuses it
            pytest.param(
                "fd_step", "nan", "unrecognized arguments: --fd-step=nan", id="fd_step-nan"
            ),
            pytest.param(
                "fd_step", "-inf", "unrecognized arguments: --fd-step=-inf", id="fd_step--inf"
            ),
        ],
    )
    def test_invalid_flag_exits_2(self, tmp_path, capsys, command, key, value, message):
        cfg = write_config(tmp_path, CONSTANT_PATH)
        flag = "--" + key.replace("_", "-")
        if key == "var_tol" and command != "certify":  # only certify reads it
            message = f"unrecognized arguments: {flag}={value}"
        try:
            code = main([command, "--config", cfg, f"{flag}={value}"])
        except SystemExit as exc:  # argparse exits on an unknown flag
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_flag_overrides_invalid_config_value(self, tmp_path, capsys, command):
        # --var-tol exists on certify only; --deg-tol on every command
        key = "var_tol" if command == "certify" else "deg_tol"
        doc = {**CONSTANT_PATH, "tolerances": {key: -1.0}}
        cfg = write_config(tmp_path, doc)
        flag = "--" + key.replace("_", "-")
        code, _, err = run_cli(capsys, command, "--config", cfg, flag, "0.1")
        assert code in (0, 1)
        assert err == ""

    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep"])
    def test_invalid_config_var_tol_exits_2_on_every_command(self, tmp_path, capsys, command):
        # the config key stays shared: it is checked whichever command runs
        doc = {**CONSTANT_PATH, "tolerances": {"var_tol": -1.0}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "var_tol must be positive and finite" in err
        assert out == ""

    def test_echo_config_rejects_invalid_tolerance(self, tmp_path, capsys):
        doc = {**CONSTANT_PATH, "tolerances": {"var_tol": -2.0}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--echo-config")
        assert code == 2
        assert out == ""

    def test_nonfinite_interior_sweep_point_exits_2(self, tmp_path, capsys):
        doc = {
            "system": {"n": 2, "delta": [0.5, 0.5], "h": [1e308, 0.0], "couplings": []},
            "sweep": {
                "direction": {"delta": [0.0, 0.0], "h": [1e308, 0.0], "couplings": []},
                "grid": {"start": -1.0, "stop": 2.0, "num": 31},
            },
        }
        cfg = write_config(tmp_path, doc)
        for command in ("sweep", "certify"):
            code, out, err = run_cli(capsys, command, "--config", cfg)
            assert code == 2
            assert err == "config error: path coefficients are not finite at lambda=0.8\n"
            assert out == ""


class TestOverflowingSpectrum:
    # E_max - E_0 is about 3e308, beyond the largest double, so no gap can be
    # resolved; every command that gates the ground state must say so.
    HUGE_BIAS = {
        **CONSTANT_PATH,
        "system": {"n": 2, "delta": [0.2, 0.2], "h": [1.5e308, 0.0], "couplings": []},
    }

    @pytest.mark.parametrize(
        "argv", [["spectrum", "--ground"], ["witness"], ["sweep"], ["certify"]]
    )
    def test_exits_2_naming_the_overflow(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, self.HUGE_BIAS)
        code, out, err = run_cli(capsys, argv[0], "--config", cfg, *argv[1:])
        assert code == 2
        assert err.startswith("config error: spectral width E_max - E_0 = ")
        assert "overflows" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "witness"])
    def test_overflowing_diagonal_exits_2(self, tmp_path, capsys, command):
        doc = {"system": {"n": 2, "delta": [0.2, 0.2], "h": [1e308, 0.0],
                          "couplings": [[0, 1, 1e308]]}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert err == "config error: matrix must contain only finite values\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "witness", "sweep", "certify"])
    def test_overflowing_eigenvalues_exit_2(self, tmp_path, capsys, command):
        # Finite entries, but the levels are about +-1.9e308.
        doc = {**CONSTANT_PATH, "system": {"n": 2, "delta": [-1.7e308, 0.0],
                                          "h": [-1.7e308, 0.0], "couplings": []}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert err == "config error: eigenvalues overflow; the coefficients are too large\n"
        assert out == ""

    def test_plain_spectrum_still_prints_the_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.HUGE_BIAS)
        code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 5


class TestDeterminismAndRoundTrip:
    def test_identical_configs_identical_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FM_PAIR)
        _, first_out, _ = run_cli(capsys, "sweep", "--config", cfg)
        _, second_out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert first_out == second_out

    def test_echo_config_is_fixed_point(self, tmp_path, capsys):
        doc = {
            **FM_PAIR,
            "witness": {
                "lambda_direction": {"delta": [0.0, 0.0], "h": [1.0, 1.0], "couplings": []},
                "lambda0": 0.25,
            },
            "tolerances": {"deg_tol": 1e-10, "var_tol": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        code, echoed, _ = run_cli(capsys, "certify", "--config", cfg, "--echo-config")
        assert code == 0
        cfg2 = write_config(tmp_path, json.loads(echoed), name="echo.json")
        code, echoed_again, _ = run_cli(capsys, "certify", "--config", cfg2, "--echo-config")
        assert code == 0
        assert echoed == echoed_again

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, PINNED)
        proc = subprocess.run(
            [sys.executable, "-m", "witness_lab", "spectrum", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("level,energy\n")
