import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scatmap
from scatmap import ModelParams
from scatmap.cli import main
from scatmap.contour import contour_polylines
from scatmap.gridkernels import reduced_poincare_grid
from scatmap.model import TWO_PI


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegime:
    @pytest.mark.parametrize("a10,expected", [
        ("0.6", "single"), ("0.9", "tangency"), ("1.5", "holes"),
    ])
    def test_examples(self, capsys, a10, expected):
        code, out, _ = run(capsys, "regime", "--a10", a10, "--a01", "1")
        assert code == 0
        assert json.loads(out)["regime"] == expected

    def test_mu_flag(self, capsys):
        code, out, _ = run(capsys, "regime", "--mu", "0.9")
        assert code == 0
        assert json.loads(out)["mu"] == pytest.approx(0.9)


class TestCrests:
    def test_horizontal_csv(self, capsys):
        code, out, _ = run(capsys, "crests", "--mu", "0.6", "--I", "1.2",
                           "--grid", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "branch,phi,s,residual"
        assert len(lines) == 1 + 32
        residuals = [abs(float(l.split(",")[3])) for l in lines[1:]]
        assert max(residuals) <= 1e-12

    def test_vertical_csv(self, capsys):
        code, out, _ = run(capsys, "crests", "--mu", "1.2", "--I", "1",
                           "--grid", "8")
        assert code == 0
        assert max(abs(float(l.split(",")[3]))
                   for l in out.strip().splitlines()[1:]) <= 1e-12


class TestPortrait:
    def test_grid_symmetry_and_header(self, capsys):
        code, out, _ = run(capsys, "portrait", "--mu", "0.6", "--grid", "21",
                           "--imin", "-1", "--imax", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "I,theta,value"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        table = {(round(i, 9), round(t, 9)): v for i, t, v in rows}
        for (i, t), v in table.items():
            assert table[(round(-i, 9), t)] == pytest.approx(v, abs=1e-9)

    def test_holes_flagged_nan(self, capsys):
        code, out, _ = run(capsys, "portrait", "--mu", "1.5", "--grid", "31",
                           "--imin", "0.6", "--imax", "1.4")
        assert code == 0
        values = [l.split(",")[2] for l in out.strip().splitlines()[1:]]
        assert any(v == "nan" for v in values)

    def test_contours_emitted(self, tmp_path, capsys):
        out_file = tmp_path / "portrait.csv"
        code, _, _ = run(capsys, "portrait", "--mu", "0.6", "--grid", "41",
                         "--imin", "-2", "--imax", "2", "--nlevels", "3",
                         "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        contours = tmp_path / "portrait.contours.csv"
        assert contours.exists()
        header = contours.read_text().splitlines()[0]
        assert header == "level,polyline,vertex,I,theta"

    def test_files_equal_stdout_text(self, tmp_path, capsys):
        # the grid is streamed to --out row by row; the text must be the one
        # stdout gets, where a blank line separates grid and contours
        args = ["portrait", "--mu", "1.5", "--grid", "23", "--nlevels", "3"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        out_file = tmp_path / "portrait.csv"
        code, _, _ = run(capsys, *args, "--out", str(out_file))
        assert code == 0
        grid = out_file.read_text()
        contours = (tmp_path / "portrait.contours.csv").read_text()
        assert grid.count("\n") == 1 + 23 * 23 and "nan" in grid
        assert out == grid + "\n" + contours

    def test_streamed_json_equals_json_dumps(self, tmp_path, capsys):
        # the JSON document is written record by record; its bytes must be
        # those of json.dumps on the whole document, NaN holes included
        n, nlevels = 40, 4
        out_file = tmp_path / "portrait.json"
        code, _, _ = run(capsys, "portrait", "--mu", "1.5", "--grid", str(n),
                         "--nlevels", str(nlevels), "--format", "json",
                         "--out", str(out_file))
        assert code == 0
        p = ModelParams(a00=0.0, a10=1.5, a01=1.0, eps=0.01)
        I_vals = np.linspace(-4.0, 4.0, n)
        th_vals = np.linspace(0.0, TWO_PI, n, endpoint=False)
        Z = reduced_poincare_grid(p, I_vals, th_vals)
        assert np.isnan(Z).any()
        finite = Z[np.isfinite(Z)]
        levels = np.linspace(finite.min(), finite.max(), nlevels + 2)[1:-1]
        grid = [{"I": float(I), "theta": float(th), "value": float(Z[i, j])}
                for i, I in enumerate(I_vals) for j, th in enumerate(th_vals)]
        contours = [{"level": float(level), "polyline": pid, "vertex": vid,
                     "I": float(I), "theta": float(th)}
                    for level in levels
                    for pid, poly in enumerate(contour_polylines(th_vals, I_vals, Z, level))
                    for vid, (th, I) in enumerate(poly)]
        assert contours
        expected = json.dumps({"grid": grid, "contours": contours}, indent=2) + "\n"
        assert out_file.read_text() == expected
        code, out, _ = run(capsys, "portrait", "--mu", "1.5", "--grid", str(n),
                           "--nlevels", str(nlevels), "--format", "json")
        assert code == 0 and out == expected

    def test_json_without_levels(self, capsys):
        code, out, _ = run(capsys, "portrait", "--mu", "0.6", "--grid", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["contours"] == [] and len(doc["grid"]) == 9
        assert out == json.dumps(doc, indent=2) + "\n"


class TestHighways:
    def test_csv_residuals(self, capsys):
        code, out, _ = run(capsys, "highways", "--mu", "0.6", "--imin", "-2",
                           "--imax", "2", "--step", "0.1", "--side", "right")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "side,I,theta,psi,residual"
        assert max(abs(float(l.split(",")[4])) for l in lines[1:]) <= 1e-10

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "highways", "--mu", "0.6", "--imin", "0",
                           "--imax", "1", "--step", "0.5", "--side", "right",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["highways"]) == 3
        assert set(doc["highways"][0]) == {"side", "I", "theta", "psi", "residual"}

    def test_breakage_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "highways", "--mu", "1.5", "--imin", "0",
                           "--imax", "2", "--step", "0.1", "--side", "right")
        assert code == 1
        assert "numeric failure" in err


class TestTangency:
    def test_single_action(self, capsys):
        code, out, _ = run(capsys, "tangency", "--mu", "0.9", "--I", "1.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "I,psi1,psi2,theta1,theta2"
        _, psi1, psi2, th1, th2 = map(float, lines[1].split(","))
        assert psi2 == pytest.approx(2 * math.pi - psi1, abs=1e-12)
        assert th1 >= th2

    def test_empty_when_transversal(self, capsys):
        code, out, _ = run(capsys, "tangency", "--mu", "0.5", "--imin", "0.1",
                           "--imax", "3", "--grid", "20")
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_bad_scan_grid_is_config_error(self, capsys, grid):
        code, out, err = run(capsys, "tangency", "--mu", "0.9", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "grid resolution must be >= 2" in err


class TestOrbit:
    def test_short_highway_run(self, capsys):
        code, out, _ = run(capsys, "orbit", "--mu", "0.6", "--eps", "0.05",
                           "--ifrom", "-1", "--ito", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "leg,mechanism,I,theta,model_time"
        last = lines[-1].split(",")
        assert float(last[2]) >= 1.0

    @pytest.mark.parametrize("nlevels", ["-1", "-2", "-5"])
    def test_negative_nlevels_is_config_error(self, capsys, nlevels):
        code, out, err = run(capsys, "portrait", "--mu", "0.6", "--grid", "8",
                             "--nlevels", nlevels)
        assert (code, out) == (2, "")
        assert f"configuration error: --nlevels must be >= 0, got {nlevels}" in err

    def test_zero_nlevels_draws_no_contours(self, capsys):
        code, out, _ = run(capsys, "portrait", "--mu", "0.6", "--grid", "8",
                           "--nlevels", "0")
        assert code == 0
        assert out == run(capsys, "portrait", "--mu", "0.6", "--grid", "8")[1]
        assert out.count("\n") == 1 + 8 * 8   # the grid only

    @pytest.mark.parametrize("flag", ["--ifrom", "--ito"])
    def test_lone_interval_flag_is_config_error(self, capsys, flag):
        code, out, err = run(capsys, "orbit", "--mu", "0.6", "--eps", "0.05", flag, "1")
        assert (code, out) == (2, "")
        assert "configuration error: --ifrom and --ito go together" in err

    def test_zero_eps_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "orbit", "--mu", "0.6", "--eps", "0",
                           "--ifrom", "-1", "--ito", "1")
        assert code == 1


class TestDifftime:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "difftime", "--mu", "0.6", "--eps", "0.01",
                           "--Istar", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["Td"] == pytest.approx(
            doc["Ns"] * doc["Th"] + (doc["Ns"] // doc["Nss"]) * doc["Ti"])

    def test_zero_eps_is_config_error(self, capsys):
        code, _, err = run(capsys, "difftime", "--eps", "0")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("istar", ["-4", "0"])
    def test_nonpositive_istar_is_config_error(self, capsys, istar):
        code, out, err = run(capsys, "difftime", "--mu", "0.6", "--eps", "1e-3",
                             "--Istar", istar)
        assert (code, out) == (2, "")
        assert "configuration error: I_star must be positive" in err


class TestEpsstar:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "epsstar", "--mu", "0.9", "--Istar", "4",
                           "--grid", "401")
        assert code == 0
        doc = json.loads(out)
        assert doc["eps_star"] == pytest.approx(0.0837, abs=2e-3)
        assert doc["eps_star"] < doc["envelope"]


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--fast", "--mu", "0.6")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out


class TestOutPath:
    # each command's --out file holds exactly what it writes to stdout
    # without --out, and with --out nothing goes to stdout
    @pytest.mark.parametrize("argv", [
        ["regime", "--mu", "0.9"],
        ["crests", "--mu", "0.6", "--I", "1.2", "--grid", "8"],
        ["portrait", "--mu", "1.5", "--grid", "12"],
        ["highways", "--mu", "0.6", "--imin", "-1", "--imax", "1", "--step", "0.5"],
        ["tangency", "--mu", "0.9", "--imin", "1.1", "--imax", "3.0", "--grid", "5"],
        ["orbit", "--mu", "0.6", "--eps", "0.05", "--Istar", "1"],
        ["difftime", "--mu", "0.6", "--eps", "0.01", "--Istar", "1"],
        ["epsstar", "--mu", "0.9", "--Istar", "4", "--grid", "41"],
        ["verify", "--fast"],
    ])
    def test_file_holds_stdout(self, tmp_path, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / "out.txt"
        code, out_with_path, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert out_with_path == ""
        assert path.read_text() == out


class TestNonFiniteParams:
    @pytest.mark.parametrize("argv,field", [
        (["regime", "--mu", "nan"], "a10"),
        (["portrait", "--mu", "inf", "--grid", "4"], "a10"),
        (["difftime", "--eps", "inf"], "eps"),
        (["regime", "--a00=-inf"], "a00"),
        (["regime", "--a01", "nan"], "a01"),
        # command flags, checked after the model flags
        (["tangency", "--imin", "nan"], "--imin"),
        (["tangency", "--I", "inf"], "--I"),
        (["crests", "--I", "nan"], "--I"),
        (["portrait", "--imin", "nan", "--grid", "4"], "--imin"),
        (["portrait", "--levels", "0.5,nan", "--grid", "4"], "--levels"),
    ])
    def test_config_error_names_field(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"configuration error: {field} must be finite" in err


class TestFormatFlag:
    @pytest.mark.parametrize("command", ["regime", "difftime", "epsstar", "verify"])
    def test_only_table_commands_take_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["crests", "--grid", "4"],
        ["portrait", "--grid", "4"],
        ["highways", "--imin", "0", "--imax", "0.5", "--step", "0.5"],
        ["tangency", "--mu", "0.9", "--I", "1.5"],
        ["orbit", "--eps", "0.05", "--Istar", "0.5"],
    ])
    def test_table_commands_honour_it(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert isinstance(json.loads(out), dict)


class TestConfigPrecedence:
    def test_file_then_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample\na10 = 0.9\na01 = 1.0\n")
        code, out, _ = run(capsys, "regime", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["regime"] == "tangency"
        # flag wins over file
        code, out, _ = run(capsys, "regime", "--config", str(cfg), "--a10", "0.5")
        assert json.loads(out)["regime"] == "single"

    def test_missing_config_is_config_error(self, capsys):
        code, _, err = run(capsys, "regime", "--config", "/nonexistent.cfg")
        assert code == 2


class TestDeterminism:
    def test_byte_stable(self, capsys):
        argv = ["portrait", "--mu", "0.6", "--grid", "15", "--imin", "-1",
                "--imax", "1", "--nlevels", "2"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run(capsys, "highways", "--mu", "0.6", "--imin", "0",
                        "--imax", "0.2", "--step", "0.1", "--side", "right")
        sample = out.strip().splitlines()[2].split(",")[3]
        assert len(sample.replace(".", "").replace("-", "").lstrip("0")) >= 15


class TestColdStart:
    """SciPy is needed only for quadrature and integration (difftime, verify);
    the other commands, and importing the package, must not load it."""

    COMMANDS = [
        ["regime", "--mu", "0.9"],
        ["crests", "--mu", "0.6", "--I", "1.2", "--grid", "16"],
        ["crests", "--mu", "1.2", "--I", "1", "--grid", "8"],
        ["portrait", "--mu", "1.5", "--grid", "12", "--nlevels", "2"],
        ["portrait", "--mu", "0.9", "--grid", "8", "--format", "json"],
        ["highways", "--mu", "0.6", "--imin", "-1", "--imax", "1", "--step", "0.1"],
        ["tangency", "--mu", "0.9", "--imin", "1.1", "--imax", "3.0", "--grid", "20"],
        ["orbit", "--mu", "0.6", "--eps", "0.05", "--Istar", "1"],
        ["orbit", "--mu", "0.9", "--eps", "0.05", "--Istar", "2"],
        ["epsstar", "--mu", "0.9", "--Istar", "4", "--grid", "41"],
    ]

    @staticmethod
    def scipy_modules_after(code: str) -> list[str]:
        """The scipy modules loaded once code has run in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(scatmap.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code += ("\nimport json\nprint('SCIPY', json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.strip().splitlines()[-1]
        assert last.startswith("SCIPY ")
        return json.loads(last[len("SCIPY "):])

    def test_commands_never_import_scipy(self):
        code = ("import contextlib, io, sys\n"
                "from scatmap.cli import main\n"
                f"for argv in {self.COMMANDS!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n")
        assert self.scipy_modules_after(code) == []

    def test_package_import_is_scipy_free(self):
        assert self.scipy_modules_after("import sys, scatmap") == []

    def test_guard_sees_scipy(self):
        # the probe itself must notice SciPy where a command does load it
        code = ("import contextlib, io, sys\n"
                "from scatmap.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    main(['difftime', '--mu', '0.6', '--eps', '0.01', '--Istar', '1'])\n")
        assert "scipy.integrate" in self.scipy_modules_after(code)
