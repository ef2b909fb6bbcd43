"""Command-line interface emitting machine-readable curve and table data.

Subcommands: regime | crests | portrait | highways | tangency | orbit |
difftime | epsstar | verify.  Exit codes: 0 ok, 1 numeric failure, 2 bad
configuration.  CSV output is comma-separated with 17 significant digits;
JSON mirrors the same records.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .contour import contour_polylines
from .crests import (
    CrestBranch,
    Orientation,
    classify_regime,
    crest_orientation,
    crest_residual,
    eta,
    tangency_points,
    xi,
)
from .diffusion import (
    build_pseudo_orbit_general,
    build_pseudo_orbit_highway,
    diffusion_time,
)
from .errors import ScatmapError
from .gridkernels import reduced_poincare_grid
from .highways import Side, trace_highway
from .model import TWO_PI, FullState, ModelParams, melnikov_potential, pendulum_energy
from .scattering import finite_diff_grad, grad_reduced_poincare
from .verify import (
    epsilon_star,
    integrate_full,
    measure_homoclinic_jump,
    melnikov_quadrature_oracle,
)

DEFAULTS = {"a00": 0.0, "a10": 0.6, "a01": 1.0, "eps": 0.01}


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_params(args: argparse.Namespace) -> ModelParams:
    """Merge defaults < config file < explicit flags."""
    merged = dict(DEFAULTS)
    mu = None
    if getattr(args, "config", None):
        cfg = _read_config_file(args.config)
        for key in DEFAULTS:
            if key in cfg:
                merged[key] = float(cfg[key])
        if "mu" in cfg:
            mu = float(cfg["mu"])
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "mu", None) is not None:
        mu = args.mu
    if mu is not None and getattr(args, "a10", None) is None:
        merged["a10"] = mu * merged["a01"]
    return ModelParams(**merged)


def _write(out: str | None, chunks, suffix: str = ""):
    """Write the text chunks in turn, ending with one newline, to stdout or
    to the path out (with suffix inserted before its extension)."""
    if out is not None and suffix:
        stem, dot, ext = out.rpartition(".")
        out = f"{stem}.{suffix}.{ext}" if dot else f"{out}.{suffix}"
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as fh:
        last = ""
        for text in chunks:
            fh.write(text)
            last = text or last
        if not last.endswith("\n"):
            fh.write("\n")


def _csv_chunks(header: list[str], rows):
    """CSV text in pieces, one per row: the header, then "\n" + each row."""
    yield ",".join(header)
    for row in rows:
        yield "\n" + ",".join(fmt(v) if isinstance(v, float) else str(v) for v in row)


def _json_value(v) -> str:
    """One scalar as json.dumps writes it; floats are spelled out here, the
    common case, to skip building an encoder per value."""
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v in (math.inf, -math.inf):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    return json.dumps(v)


def _json_chunks(sections):
    """json.dumps({name: [dict(zip(header, row)), ...], ...}, indent=2) in
    pieces, one per record, from (name, header, rows) triples; the records
    are never all held."""
    yield "{"
    for n, (name, header, rows) in enumerate(sections):
        yield f'{"," if n else ""}\n  {json.dumps(name)}: ['
        keys = [f"\n      {json.dumps(key)}: " for key in header]
        sep = "\n    {"
        for row in rows:
            yield sep + ",".join(k + _json_value(v) for k, v in zip(keys, row)) + "\n    }"
            sep = ",\n    {"
        yield "]" if sep == "\n    {" else "\n  ]"
    yield "\n}"


def _emit(args, header: list[str], rows: list[list]):
    """One table, as CSV or JSON by --format (keyed by the command's name),
    to --out or stdout."""
    _write(args.out, _csv_chunks(header, rows) if args.format == "csv"
           else _json_chunks([(args.command, header, rows)]))


# ----------------------------------------------------------------- commands

def cmd_regime(args, params: ModelParams) -> int:
    rep = classify_regime(params)
    doc = {
        "mu": params.mu,
        "regime": rep.regime.value,
        "mu_low": rep.mu_low,
        "mu_high": rep.mu_high,
        "I_plus": rep.I_plus,
        "I_plusplus": rep.I_plusplus,
        "boundary": rep.boundary,
    }
    _write(args.out, [json.dumps(doc, indent=2)])
    return 0


def _check_grid(n: int):
    if n < 2:
        raise ValueError(f"grid resolution must be >= 2, got {n}")


def cmd_crests(args, params: ModelParams) -> int:
    _check_grid(args.grid)
    I = args.I
    orientation = crest_orientation(params, I)
    if orientation is Orientation.SINGULAR:
        raise ScatmapError(f"crest is singular at I = {I!r}; no parameterization")
    rows = []
    for branch, name in ((CrestBranch.MAXIMUM, "max"), (CrestBranch.MINIMUM, "min")):
        # a horizontal crest is sampled over phi, a vertical one over s
        for t in np.linspace(0.0, TWO_PI, args.grid, endpoint=False).tolist():
            if orientation is Orientation.HORIZONTAL:
                phi, s = t, xi(params, branch, I, t)
            else:
                phi, s = eta(params, branch, I, t), t
            rows.append([name, phi, s, crest_residual(params, I, phi, s)])
    _emit(args, ["branch", "phi", "s", "residual"], rows)
    return 0


def cmd_portrait(args, params: ModelParams) -> int:
    _check_grid(args.grid)
    if args.imax <= args.imin:
        raise ValueError("imax must exceed imin")
    if args.nlevels is not None and args.nlevels < 0:
        raise ValueError(f"--nlevels must be >= 0, got {args.nlevels}")
    n = args.grid
    I_vals = np.linspace(args.imin, args.imax, n)
    th_vals = np.linspace(0.0, TWO_PI, n, endpoint=False)
    Z = reduced_poincare_grid(params, I_vals, th_vals)

    levels = args.levels or []
    if not levels and args.nlevels:
        finite = Z[np.isfinite(Z)]
        levels = list(np.linspace(finite.min(), finite.max(), args.nlevels + 2)[1:-1])

    th_list = th_vals.tolist()
    grid_header = ["I", "theta", "value"]
    contour_header = ["level", "polyline", "vertex", "I", "theta"]

    def grid_rows():
        # rows are made as they are written, never all held: there are n*n
        for I, z_row in zip(I_vals.tolist(), Z):
            for theta, z in zip(th_list, z_row.tolist()):
                yield [I, theta, z]

    contour_rows = []
    for level in levels:
        polys = contour_polylines(th_vals, I_vals, Z, level)
        for pid, poly in enumerate(polys):
            for vid, (theta, I) in enumerate(poly):
                contour_rows.append([float(level), pid, vid, float(I), float(theta)])

    if args.format == "json":
        _write(args.out, _json_chunks([("grid", grid_header, grid_rows()),
                                       ("contours", contour_header, contour_rows)]))
        return 0
    _write(args.out, _csv_chunks(grid_header, grid_rows()))
    if levels:
        if args.out is None:
            sys.stdout.write("\n")
        _write(args.out, _csv_chunks(contour_header, contour_rows), suffix="contours")
    return 0


def cmd_highways(args, params: ModelParams) -> int:
    sides = {"left": [Side.LEFT], "right": [Side.RIGHT],
             "both": [Side.LEFT, Side.RIGHT]}[args.side]
    rows = []
    for side in sides:
        for smp in trace_highway(params, side, args.imin, args.imax, args.step):
            rows.append([side.value, smp.I, smp.theta, smp.psi, smp.residual])
    _emit(args, ["side", "I", "theta", "psi", "residual"], rows)
    return 0


def cmd_tangency(args, params: ModelParams) -> int:
    rows = []
    if args.I is not None:
        scan = [args.I]
    else:
        _check_grid(args.grid)
        scan = list(np.linspace(args.imin, args.imax, args.grid))
    for I in scan:
        info = tangency_points(params, float(I))
        if info is not None:
            rows.append([info.I, info.psi1, info.psi2, info.theta1, info.theta2])
    _emit(args, ["I", "psi1", "psi2", "theta1", "theta2"], rows)
    return 0


def cmd_orbit(args, params: ModelParams) -> int:
    if (args.ifrom is None) != (args.ito is None):
        raise ValueError("--ifrom and --ito go together: give both or neither")
    if args.ifrom is not None:
        orbit = build_pseudo_orbit_highway(params, args.ifrom, args.ito,
                                           c=args.c, a=args.a)
    else:
        orbit = build_pseudo_orbit_general(params, args.Istar, c=args.c, a=args.a)
    rows = []
    for k, leg in enumerate(orbit.legs):
        for pt in leg.points:
            rows.append([k, leg.mechanism.value, pt.I, pt.theta, leg.model_time])
    _emit(args, ["leg", "mechanism", "I", "theta", "model_time"], rows)
    return 0


def cmd_difftime(args, params: ModelParams) -> int:
    if params.eps <= 0.0:
        raise ValueError("difftime requires eps > 0")
    est = diffusion_time(params, args.Istar, c=args.c, a=args.a)
    _write(args.out, [json.dumps(dataclasses.asdict(est), indent=2)])
    return 0


def cmd_epsstar(args, params: ModelParams) -> int:
    est = epsilon_star(params, args.Istar, grid=args.grid)
    doc = {"I_star": args.Istar, "eps_star": est.value,
           "envelope": est.envelope, "argmin_I": est.argmin_I}
    _write(args.out, [json.dumps(doc, indent=2)])
    return 0


def cmd_verify(args, params: ModelParams) -> int:
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(12345)

    worst = 0.0
    for _ in range(27):
        I = rng.uniform(-3, 3)
        phi, s = rng.uniform(0, TWO_PI, 2)
        closed = melnikov_potential(params, I, phi, s)
        oracle = melnikov_quadrature_oracle(params, I, phi, s, tol=1e-11)
        worst = max(worst, abs(closed - oracle) / max(1.0, abs(closed)))
    checks.append(("melnikov closed form vs quadrature", worst <= 1e-8,
                   f"max rel err {worst:.3e}"))

    worst = 0.0
    tried = 0
    while tried < 100:
        I = rng.uniform(0.1, 3)
        theta = rng.uniform(0, TWO_PI)
        try:
            gi, gt = grad_reduced_poincare(params, I, theta)
            fi, ft = finite_diff_grad(params, I, theta)
        except ScatmapError:
            continue
        tried += 1
        worst = max(worst, abs(gi - fi) / (1 + abs(gi)), abs(gt - ft) / (1 + abs(gt)))
    checks.append(("reduced-function gradient vs finite differences",
                   worst <= 1e-6, f"max scaled err {worst:.3e}"))

    frozen = dataclasses.replace(params, eps=0.0)
    state = FullState(p=2.0 / math.cosh(1.0), q=4.0 * math.atan(math.e), I=0.7,
                      phi=0.3, s=0.0)
    traj = integrate_full(frozen, state, 20.0, tol=1e-11)
    drift = max(abs(pendulum_energy(st.p, st.q)) for st in traj.states)
    i_drift = max(abs(st.I - state.I) for st in traj.states)
    checks.append(("unperturbed invariants under integration",
                   drift <= 1e-9 and i_drift <= 1e-10,
                   f"pendulum energy {drift:.3e}, action drift {i_drift:.3e}"))

    if not args.fast and params.eps > 0.0:
        meas, pred = measure_homoclinic_jump(params, 1.0, 1.0, 0.0)
        ok = abs(meas - pred) <= 50.0 * params.eps**2 and (meas == pred == 0.0
                                                           or meas * pred > 0)
        checks.append(("homoclinic action jump vs first-order prediction", ok,
                       f"measured {meas:.6e}, predicted {pred:.6e}"))

    _write(args.out, ["\n".join(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
                                 for name, ok, detail in checks)])
    return 0 if all(ok for _, ok, _ in checks) else 1


# ------------------------------------------------------------------- parser

def _float_list(text: str) -> list[float]:
    """--levels: comma-separated floats; the empty string gives none."""
    return [float(tok) for tok in text.split(",")] if text else []


def _add_common(sp: argparse.ArgumentParser, table: bool = False):
    """Model flags, --out and --config; --format for the table commands."""
    sp.add_argument("--a00", type=float, default=None)
    sp.add_argument("--a10", type=float, default=None)
    sp.add_argument("--a01", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None,
                    help="sets a10 = mu * a01 unless --a10 is given")
    if table:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--config", default=None, help="key=value config file")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scatmap",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("regime", help="classify the crossing regime of mu")
    _add_common(sp)
    sp.set_defaults(func=cmd_regime)

    sp = sub.add_parser("crests", help="sample both crest branches at fixed I")
    _add_common(sp, table=True)
    sp.add_argument("--I", type=float, default=1.2)
    sp.add_argument("--grid", type=int, default=400)
    sp.set_defaults(func=cmd_crests)

    sp = sub.add_parser("portrait", help="reduced-function grid and level curves")
    _add_common(sp, table=True)
    sp.add_argument("--imin", type=float, default=-4.0)
    sp.add_argument("--imax", type=float, default=4.0)
    sp.add_argument("--grid", type=int, default=400)
    sp.add_argument("--levels", type=_float_list, default=None,
                    help="comma-separated level values")
    sp.add_argument("--nlevels", type=int, default=None)
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("highways", help="trace the fast-drift level curves")
    _add_common(sp, table=True)
    sp.add_argument("--imin", type=float, default=-4.0)
    sp.add_argument("--imax", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=1e-2)
    sp.add_argument("--side", choices=("left", "right", "both"), default="both")
    sp.set_defaults(func=cmd_highways)

    sp = sub.add_parser("tangency", help="tangency angles over an action range")
    _add_common(sp, table=True)
    sp.add_argument("--I", type=float, default=None)
    sp.add_argument("--imin", type=float, default=0.0)
    sp.add_argument("--imax", type=float, default=4.0)
    sp.add_argument("--grid", type=int, default=401)
    sp.set_defaults(func=cmd_tangency)

    sp = sub.add_parser("orbit", help="build a drift pseudo-orbit")
    _add_common(sp, table=True)
    sp.add_argument("--Istar", type=float, default=4.0)
    sp.add_argument("--ifrom", type=float, default=None)
    sp.add_argument("--ito", type=float, default=None)
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--a", type=float, default=0.25)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("difftime", help="diffusion-time estimate")
    _add_common(sp)
    sp.add_argument("--Istar", type=float, default=4.0)
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--a", type=float, default=0.25)
    sp.set_defaults(func=cmd_difftime)

    sp = sub.add_parser("epsstar", help="admissible perturbation size along a lane")
    _add_common(sp)
    sp.add_argument("--Istar", type=float, default=4.0)
    sp.add_argument("--grid", type=int, default=801)
    sp.set_defaults(func=cmd_epsstar)

    sp = sub.add_parser("verify", help="run the independent-oracle suite")
    _add_common(sp)
    sp.add_argument("--fast", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        params = build_params(args)   # first: a non-finite model flag names its field
        for name, value in vars(args).items():
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"--{name} must be finite, got {v!r}")
        return args.func(args, params)
    except (ValueError, OSError) as exc:
        print(f"scatmap: configuration error: {exc}", file=sys.stderr)
        return 2
    except ScatmapError as exc:
        print(f"scatmap: numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
