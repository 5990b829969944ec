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
from witness_lab.cli import main


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

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--config", "/nonexistent.json")
        assert code == 2

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
        cfg = write_config(tmp_path, {**PINNED, "format": "xml"})
        code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("value", ["x", None])
    def test_non_numeric_coupling_value(self, tmp_path, capsys, value):
        doc = {"system": {**PINNED["system"], "couplings": [[0, 1, value]]}}
        code, _, err = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "couplings value must be a number" in err

    @pytest.mark.parametrize("value", [{}, [1], "x", None])
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
        energies = diagonalize(build_hamiltonian(system)).energies
        assert len(emitted) == 8
        assert np.all(np.diff(emitted) >= 0.0)
        assert emitted == list(energies)

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
        text = json.dumps(FM_PAIR)[:-1] + f', "tolerances": {{"schmidt_tol": {value}}}}}'
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "certify", "--config", str(path))
        assert code == 2
        assert "schmidt_tol must be in (0, 1)" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["certify", "witness"])
    def test_negative_fd_step_exits_2_on_every_command(self, tmp_path, capsys, command):
        doc = {**CONSTANT_PATH, "tolerances": {"fd_step": -1.0}}
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "fd_step must be positive and finite" in err
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "key,value",
        [
            ("deg_tol", "inf"),
            ("var_tol", "0"),
            ("fd_step", "nan"),
            ("fd_step", "-inf"),
        ],
    )
    def test_invalid_flag_exits_2(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, CONSTANT_PATH)
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, command, "--config", cfg, f"{flag}={value}")
        assert code == 2
        assert f"{key} must be positive and finite" in err
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_flag_overrides_invalid_config_value(self, tmp_path, capsys, command):
        doc = {**CONSTANT_PATH, "tolerances": {"var_tol": -1.0}}
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, command, "--config", cfg, "--var-tol", "0.1")
        assert code in (0, 1)
        assert err == ""

    def test_echo_config_rejects_invalid_tolerance(self, tmp_path, capsys):
        doc = {**CONSTANT_PATH, "tolerances": {"schmidt_tol": 2.0}}
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
