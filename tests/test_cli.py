import json
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_spheres import cli


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout/stderr and exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_version_header_and_schema():
    code, out, err = run_cli(["energy", "--r", "0.01", "--z", "1.0",
                              "--branch", "asymptotic", "--reproducible"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# casimir-spheres v0.1.0"
    assert lines[1] == "z,E_ad,S_ad,F_ad,branch,l_max,err_est"
    fields = lines[2].split(",")
    assert float(fields[0]) == 1.0
    assert fields[4] == "asymptotic"


def test_determinism_byte_identical():
    args = ["sweep", "--r", "0.01", "--z", "0.1:5:log20",
            "--branch", "asymptotic", "--reproducible"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_timestamp_only_without_reproducible():
    _, out_rep, _ = run_cli(["energy", "--r", "0.01", "--z", "1",
                             "--branch", "asymptotic", "--reproducible"])
    _, out_ts, _ = run_cli(["energy", "--r", "0.01", "--z", "1",
                            "--branch", "asymptotic"])
    assert "# generated:" not in out_rep
    assert "# generated:" in out_ts


def test_geometry_validation_exit_code():
    code, _, err = run_cli(["energy", "--R", "1e-6", "--d", "1.5e-6",
                            "--z", "1"])
    assert code == 2
    assert err.startswith("error:config:")


def test_missing_thermal_input():
    code, _, err = run_cli(["energy", "--r", "0.01"])
    assert code == 2
    assert "error:config:" in err


def test_linalg_error_is_numerical_exit_code(monkeypatch):
    """numpy's LinAlgError derives from ValueError, yet it is a numerical
    failure (exit 3), not a configuration one (exit 2)."""
    import numpy as np

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, _, err = run_cli(["energy", "--r", "0.2", "--z", "1",
                            "--branch", "numeric", "--reproducible"])
    assert code == 3
    assert err.startswith("error:numerical:")
    assert "did not converge" in err


def test_overflow_error_is_numerical_exit_code(monkeypatch):
    """An OverflowError from a special-function ladder is a numerical
    failure (exit 3), not an uncaught traceback."""
    from casimir_spheres import specfun

    def fail(*args, **kwargs):
        raise OverflowError("I/K ratio overflows")
    monkeypatch.setattr(specfun, "log_khat_spherical_ladder_vec", fail)
    code, _, err = run_cli(["energy", "--r", "0.2", "--z", "1",
                            "--branch", "numeric", "--reproducible"])
    assert code == 3
    assert err.startswith("error:numerical:")
    assert "overflows" in err


def test_json_output():
    code, out, _ = run_cli(["energy", "--r", "0.01", "--z", "1.0",
                            "--branch", "asymptotic", "--output", "json",
                            "--reproducible"])
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "0.1.0"
    assert payload["rows"][0]["branch"] == "asymptotic"


def test_branch_auto_selection():
    code, out, _ = run_cli(["energy", "--r", "0.01", "--z", "1",
                            "--reproducible"])
    assert "asymptotic" in out
    code, out, _ = run_cli(["energy", "--r", "0.49", "--z", "1",
                            "--reproducible"])
    assert code == 0
    assert "pfa" in out


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# test config\nr = 0.02\nz = 2.0\nbranch = asymptotic\n")
    code, out, _ = run_cli(["energy", "--config", str(cfg), "--reproducible"])
    assert code == 0
    assert float(out.strip().splitlines()[-1].split(",")[0]) == 2.0
    # explicit flag beats the config value
    code, out, _ = run_cli(["energy", "--config", str(cfg), "--z", "3.0",
                            "--reproducible"])
    assert float(out.strip().splitlines()[-1].split(",")[0]) == 3.0


def test_jobs_is_accepted_and_changes_nothing(tmp_path):
    args = ["sweep", "--r", "0.01", "--z", "0.05:20:log200",
            "--branch", "asymptotic", "--reproducible"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert run_cli(args + ["--jobs", "4"]) == (0, out, "")
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 4\n")
    assert run_cli(args + ["--config", str(cfg)]) == (0, out, "")


def test_asymptotic_rows_equal_per_z_closed_forms():
    """The rows come from one array call per quantity; they are the same
    floats as one call per z."""
    import numpy as np

    from casimir_spheres import asymptotics
    from casimir_spheres.geometry import Geometry
    zs = np.geomspace(0.05, 20.0, 200)
    rows, _ = cli._rows_for(zs, Geometry.from_ratio(0.01), "asymptotic",
                            1e-9, si=False)
    for row, z in zip(rows, zs):
        assert row["E_ad"] == float(asymptotics.e_ad(z))
        assert row["S_ad"] == float(asymptotics.s_ad(z))
        assert row["F_ad"] == float(asymptotics.f_ad(z))


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run_cli(["energy", "--config", str(cfg), "--r", "0.01",
                            "--z", "1"])
    assert code == 2
    assert "error:config:" in err


def test_figure_2_left_shape():
    """S/S_cl curve of the large-separation branch has two interior zeros."""
    code, out, _ = run_cli(["figure", "--id", "2-left", "--reproducible"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    idx = header.index("S_over_Scl")
    vals = [float(l.split(",")[idx]) for l in lines[1:]]
    signs = [v < 0 for v in vals]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 2


def test_figure_1_right_pfa_monotone():
    code, out, _ = run_cli(["figure", "--id", "1-right", "--reproducible"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    idx = lines[0].split(",").index("E_over_E0")
    vals = [float(l.split(",")[idx]) for l in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_sweep_to_file(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--r", "0.01", "--z", "0.5:5:lin5",
                          "--branch", "asymptotic", "--out", str(out_file),
                          "--reproducible"])
    assert code == 0
    text = out_file.read_text()
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 6


def test_si_units_output():
    code, out, _ = run_cli(["energy", "--R", "1e-6", "--d", "1e-5",
                            "--T", "300", "--branch", "asymptotic",
                            "--units", "si", "--reproducible"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("z,T_K,E_J,S_J_per_K,F_N")
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(300.0)
    assert float(row[2]) < 0  # attractive energy in joules


def test_console_script_entry_point():
    res = subprocess.run([sys.executable, "-m", "casimir_spheres.cli",
                          "energy", "--r", "0.01", "--z", "1",
                          "--branch", "asymptotic", "--reproducible"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("# casimir-spheres")
