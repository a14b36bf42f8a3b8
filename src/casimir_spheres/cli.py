"""Command-line front end: single points, sweeps, figure data, validation.

All output is deterministic for a fixed configuration (fixed summation
orders, no randomness); the only time-dependent content is an optional
timestamp comment, disabled by ``--reproducible``.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
non-convergence or failure (``numpy.linalg.LinAlgError`` included).  Errors
go to stderr with a machine-parseable ``error:<kind>:`` prefix.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, asymptotics, pfa, thermo, validation
from .constants import HBAR_C, K_B
from .errors import CasimirError, NonConvergenceError
from .geometry import Geometry, ThermalPoint, energy_scale_ad


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error:{kind}: {message}", file=sys.stderr)
    return code


def _read_config(path: str) -> dict:
    """Flat key=value file, '#' comments, one key per line."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="casimir-spheres",
        description="Casimir energy, entropy and force between two equal "
                    "perfect-metal spheres")
    sub = p.add_subparsers(dest="mode", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--r", type=float, help="aspect ratio R/d")
        sp.add_argument("--R", type=float, help="sphere radius [m]")
        sp.add_argument("--d", type=float, help="centre distance [m]")
        sp.add_argument("--ell", type=float, help="surface gap [m] (with --R)")
        sp.add_argument("--z", type=str, default=None,
                        help="d/lambda_T value, or range lo:hi:(log|lin)N")
        sp.add_argument("--T", type=float, help="temperature [K]")
        sp.add_argument("--branch", choices=["auto", "numeric", "asymptotic",
                                             "pfa"], default="auto")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--units", choices=["ad", "si"], default="ad")
        sp.add_argument("--output", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp comment")

    for mode in ("energy", "entropy", "force", "sweep"):
        add_common(sub.add_parser(mode))

    fig = sub.add_parser("figure", help="reproduce figure data as CSV")
    fig.add_argument("--id", dest="fig_id", required=True,
                     choices=["1-left", "1-right", "2-left", "2-right",
                              "3-left", "3-right", "4-left", "4-right"])
    add_common(fig)

    val = sub.add_parser("validate", help="run the acceptance suite")
    val.add_argument("--slow", action="store_true",
                     help="include the heavy numeric criteria")
    return p


def _merge_config(args: argparse.Namespace, argv: list[str]):
    """Precedence: command line > config file > defaults."""
    if not getattr(args, "config", None):
        return args
    cfg = _read_config(args.config)
    argv_keys = {a.split("=")[0].lstrip("-").replace("-", "_")
                 for a in argv if a.startswith("--")}
    floats = {"r", "R", "d", "ell", "T", "tol"}
    for key, val in cfg.items():
        if key in argv_keys:
            continue  # explicit flag wins over the config file
        if not hasattr(args, key):
            raise ValueError(f"unknown config key '{key}'")
        if key in floats:
            setattr(args, key, float(val))
        elif key == "jobs":
            setattr(args, key, int(val))
        elif key == "reproducible":
            setattr(args, key, val.lower() in ("1", "true", "yes"))
        else:
            setattr(args, key, val)
    return args


def _geometry_from(args) -> Geometry:
    if getattr(args, "r", None) is not None:
        if getattr(args, "R", None) is not None or getattr(args, "ell", None) is not None:
            raise ValueError("give either --r or SI lengths, not both")
        return Geometry.from_ratio(args.r, d=args.d if args.d else 1.0)
    if getattr(args, "R", None) is not None:
        if getattr(args, "d", None) is not None:
            return Geometry(R=args.R, d=args.d)
        if getattr(args, "ell", None) is not None:
            return Geometry(R=args.R, d=2.0 * args.R + args.ell)
        raise ValueError("--R requires --d or --ell")
    raise ValueError("geometry required: --r or --R with --d/--ell")


def _z_values(args, geometry: Geometry) -> np.ndarray:
    if getattr(args, "T", None) is not None:
        if args.z is not None:
            raise ValueError("give either --z or --T, not both")
        return np.array([ThermalPoint.from_temperature(args.T, geometry).z])
    if args.z is None:
        raise ValueError("thermal input required: --z or --T")
    spec = args.z
    if ":" not in spec:
        return np.array([float(spec)])
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("z range must be lo:hi:(log|lin)N")
    lo, hi = float(parts[0]), float(parts[1])
    kind = parts[2]
    if kind.startswith("log"):
        return np.geomspace(lo, hi, int(kind[3:]))
    if kind.startswith("lin"):
        return np.linspace(lo, hi, int(kind[3:]))
    raise ValueError("range spec must end with logN or linN")


def _select_branch(branch: str, geometry: Geometry) -> str:
    r = geometry.r
    if branch != "auto":
        return branch
    if geometry.ell / geometry.R < 0.05:
        if 0.05 < r < 0.5:
            print("warning: geometry lies in the pfa/numeric overlap; "
                  "branch=auto selects pfa", file=sys.stderr)
        return "pfa"
    if r <= 0.05:
        return "asymptotic"
    return "numeric"


def _rows_for(zs: np.ndarray, geometry: Geometry, branch: str, tol: float,
              si: bool):
    """Rows of (z, E_ad, S_ad, F_ad, branch, l_max, err_est), and the
    determinant table at r on the numeric branch (else None)."""
    r = geometry.r
    l_max = 0
    err = 0.0
    table = None
    if branch == "numeric":
        curve = thermo.build_thermo_curve(r, zs, branch="numeric", tol=tol)
        table = curve.table
        e_arr, s_arr, f_arr = curve.e_ad, curve.s_ad, curve.f_ad
        l_max = int(curve.diff_step_policy.get("l_max", 0))
        err = tol
    elif branch == "asymptotic":
        e_arr, s_arr, f_arr = (asymptotics.e_ad(zs), asymptotics.s_ad(zs),
                               asymptotics.f_ad(zs))
    elif branch == "pfa":
        conv = energy_scale_ad(geometry)
        def one(z):
            tp = ThermalPoint.from_z(z, geometry)
            pt = pfa.PfaPoint(ell=geometry.ell, R=geometry.R, T=tp.T)
            e = pfa.pfa_energy_sum(pt) / conv
            s = pfa.pfa_entropy(pt) * geometry.d**6 / (K_B * geometry.R**6)
            f = (pfa.pfa_force(pt) * 2.0 * math.pi * geometry.d**8
                 / (HBAR_C * geometry.R**6))
            return e, s, f
        vals = [one(z) for z in zs]
        e_arr, s_arr, f_arr = map(np.array, zip(*vals))
    else:
        raise ValueError(f"unknown branch {branch}")

    rows = []
    for i, z in enumerate(zs):
        row = {"z": float(z)}
        if si:
            conv = energy_scale_ad(geometry)
            tp = ThermalPoint.from_z(z, geometry)
            row.update({
                "T_K": tp.T,
                "E_J": float(e_arr[i]) * conv,
                "S_J_per_K": float(s_arr[i]) * K_B * geometry.R**6 / geometry.d**6,
                "F_N": float(f_arr[i]) * HBAR_C * geometry.R**6
                       / (2.0 * math.pi * geometry.d**8),
            })
        else:
            row.update({"E_ad": float(e_arr[i]), "S_ad": float(s_arr[i]),
                        "F_ad": float(f_arr[i])})
        row.update({"branch": branch, "l_max": int(l_max), "err_est": err})
        rows.append(row)
    return rows, table


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(rows: list, args, notes: list[str] = ()) -> None:
    head = [f"# casimir-spheres v{__version__}"]
    if not args.reproducible:
        head.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    head.extend(f"# {n}" for n in notes)
    if args.output == "json":
        text = json.dumps({"version": __version__, "notes": list(notes),
                           "rows": rows}, indent=2) + "\n"
    else:
        lines = list(head)
        lines.append(",".join(rows[0].keys()))
        lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _figure_rows(fig_id: str, args) -> tuple[list, list]:
    notes = [f"figure {fig_id}"]
    if fig_id == "1-left":
        zs = np.linspace(1e-3, 5.0, 400)
        e0 = asymptotics.E_AD_0
        rows = [{"z": z, "E_over_E0": float(asymptotics.e_ad(z)) / e0,
                 "quantum": float(asymptotics.e_low_T(z)) / e0,
                 "classical": float(asymptotics.e_high_T(z)) / e0}
                for z in zs]
    elif fig_id == "1-right":
        xs = np.linspace(1e-3, 3.0, 300)
        e0 = math.pi**4 / 180.0  # x * energy_x as x -> 0
        rows = [{"x": x, "E_over_E0": x * pfa.pfa_energy_x(x) / e0,
                 "classical": 0.5 * pfa.ZETA_3 * x / e0} for x in xs]
    elif fig_id == "2-left":
        zs = np.linspace(1e-3, 6.0, 500)
        rows = [{"z": z, "S_over_Scl": float(asymptotics.s_ad(z)) / 3.75,
                 "low_T_linear": float(asymptotics.s_low_T(z)) / 3.75,
                 "classical": float(asymptotics.s_high_T(z)) / 3.75}
                for z in zs]
    elif fig_id == "2-right":
        xs = np.linspace(1e-3, 4.0, 400)
        s_cl = 0.5 * pfa.ZETA_3
        rows = [{"x": x, "S_over_Scl": pfa.pfa_entropy_x(x) / s_cl,
                 "low_T_linear": (math.pi**2 / 18.0) * x / s_cl} for x in xs]
    elif fig_id in ("3-left", "3-right"):
        if args.r is None:
            raise ValueError("figure 3 requires --r")
        from .matsubara import DeterminantTable
        geometry = Geometry.from_ratio(args.r)
        table = DeterminantTable(args.r, tol=args.tol)
        zs = np.geomspace(0.05, 20.0, 200)
        s_cl = -table.g0 / (2.0 * args.r**6)
        rows = []
        # PFA entropy in the S_ad normalisation: S ell-units -> d^6/(k_B R^6)
        pfa_scale = geometry.R * geometry.d**6 / (4.0 * geometry.ell
                                                  * geometry.R**6)
        for z in zs:
            s = table.s_ad(z)
            row = {"z": float(z)}
            if fig_id == "3-left":
                row["abs_S_over_Scl"] = abs(s) / s_cl
            else:
                # both PFA normalisation conventions, flagged by column name
                x_ell = z * (1.0 - 2.0 * args.r)
                row["abs_S_over_Spfa_x_ell"] = abs(s) / (
                    pfa_scale * pfa.pfa_entropy_x(x_ell))
                row["abs_S_over_Spfa_x_d"] = abs(s) / (
                    pfa_scale * pfa.pfa_entropy_x(z))
            rows.append(row)
        notes.append(f"r={args.r}")
    elif fig_id == "4-left":
        zs = np.linspace(1e-3, 6.0, 500)
        f0 = 7.0 * asymptotics.E_AD_0
        rows = [{"z": z, "F_over_F0": float(asymptotics.f_ad(z)) / f0,
                 "quantum": float(asymptotics.f_low_T(z)) / f0,
                 "classical": float(asymptotics.f_high_T(z)) / f0}
                for z in zs]
    elif fig_id == "4-right":
        xs = np.linspace(1e-3, 3.0, 300)
        f0 = math.pi**4 / 120.0
        rows = [{"x": x, "F_over_F0": x * pfa.pfa_force_x(x) / f0}
                for x in xs]
    else:
        raise ValueError(f"unknown figure id {fig_id}")
    return rows, notes


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        if args.mode == "validate":
            ok = validation.run_all(slow=args.slow)
            return 0 if ok else 2
        args = _merge_config(args, argv)
        if args.mode == "figure":
            rows, notes = _figure_rows(args.fig_id, args)
            _emit(rows, args, notes=notes)
            return 0
        geometry = _geometry_from(args)
        zs = _z_values(args, geometry)
        branch = _select_branch(args.branch, geometry)
        if args.units == "si" and geometry.d == 1.0 and args.r is not None:
            raise ValueError("SI output needs SI geometry (--R and --d/--ell)")
        rows, table = _rows_for(zs, geometry, branch, args.tol,
                                si=args.units == "si")
        notes = []
        if args.mode == "sweep" and branch == "numeric":
            rep = thermo.scan_entropy_features(geometry.r, zs, tol=args.tol,
                                               table=table)
            notes.append(
                f"feature report: has_negative_interval={rep.has_negative_interval}"
                f" interval={rep.interval} min_S_over_Scl={rep.min_S_over_Scl:.6g}"
                f" low_T_exponent={rep.low_T_exponent:.4g}")
        _emit(rows, args, notes=notes)
        return 0
    except NonConvergenceError as exc:
        return _fail("convergence", str(exc), 3)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        # LinAlgError is a ValueError subclass, but a failure of the
        # numerics, not of the input; OverflowError comes from the Bessel
        # and T-matrix ladders
        return _fail("numerical", str(exc), 3)
    except (ValueError, OSError) as exc:
        return _fail("config", str(exc), 2)
    except CasimirError as exc:
        return _fail("numerical", str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
