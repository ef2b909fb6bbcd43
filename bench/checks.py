"""Output checks for the benchmark's workloads.

Each check compares a scatmap result with the independent reference in
reference.py or with a property the result must have (see README.md).
Every check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
GRID_TOL = 1e-9
LEVEL_TOL = 1e-9
CONTOUR_BAND = 16        # grid rows per band of the contour completeness scan
# central differences with h = 1e-5 agree with the exact gradient to O(h^2);
# the constant grows near a tangency, where d sigma / d I is large
FD_H = 1e-5
FD_TOL = 1e-6


# ------------------------------------------------------------------ portrait

def check_grid_rows(mu: float, I_values, theta_values, Z, rows):
    """Compare grid rows with the reference crossing.

    Returns (selection, problems): ``selection`` counts cells where the grid
    holds the reduced value of an admissible crossing other than the one of
    smallest |sigma| (the grid picks its crossing by coarse-cell midpoint);
    ``problems`` lists every other disagreement, including NaN where the
    reference finds a crossing or a value where it finds none.
    """
    selection = 0
    problems = []
    n = len(theta_values)
    for r in rows:
        I_row = np.full(n, I_values[r])
        cell, sigma = ref.all_crossings(mu, I_values[r], theta_values)
        want = ref.reduced_value(mu, I_row, theta_values, ref.pick_primary(cell, sigma, n))
        got = Z[r]
        nan_mismatch = np.isnan(want) != np.isnan(got)
        both = ~np.isnan(want) & ~np.isnan(got)
        bad = both & (np.abs(want - got) > GRID_TOL)
        for j in np.nonzero(nan_mismatch)[0]:
            problems.append(f"mu={mu} I={I_values[r]:.6g} theta={theta_values[j]:.6g}: "
                            f"grid {got[j]!r}, reference {want[j]!r}")
        if not bad.any():
            continue
        others = ref.reduced_value(mu, I_row[cell], theta_values[cell], sigma)
        for j in np.nonzero(bad)[0]:
            if np.any(np.abs(others[cell == j] - got[j]) <= GRID_TOL):
                selection += 1
            else:
                problems.append(f"mu={mu} I={I_values[r]:.6g} theta={theta_values[j]:.6g}: "
                                f"grid {got[j]!r} is no crossing value; reference {want[j]!r}")
    return selection, problems


def _cell_ok(Z, j, i):
    """Whether cell (j[k], i[k]) lies inside the grid and has no NaN corner."""
    ny, nx = Z.shape
    inside = (j >= 0) & (j < ny - 1) & (i >= 0) & (i < nx - 1)
    j, i = np.clip(j, 0, ny - 2), np.clip(i, 0, nx - 2)
    return inside & np.isfinite(Z[j, i] + Z[j + 1, i] + Z[j, i + 1] + Z[j + 1, i + 1])


def _crossed_edges(Z, level: float):
    """Ids of the edges of NaN-free cells whose ends lie on either side of
    the level (one above it, one not).  Horizontal edge (j, i) joins nodes
    (j, i) and (j, i + 1) and has id j * (nx - 1) + i; vertical edge (j, i)
    joins (j, i) and (j + 1, i) and has id ny * (nx - 1) + j * nx + i.  The
    grid is scanned in bands of rows, so that the arrays stay small."""
    ny, nx = Z.shape
    ids = []
    for r0 in range(0, ny, CONTOUR_BAND):
        r1 = min(r0 + CONTOUR_BAND, ny)
        z = Z[max(r0 - 1, 0):min(r1 + 1, ny)]          # the band and its neighbours
        off = r0 - max(r0 - 1, 0)
        finite = np.isfinite(z)
        ok = finite[:-1, :-1] & finite[1:, :-1] & finite[:-1, 1:] & finite[1:, 1:]
        ok = np.pad(ok, ((1, 1), (1, 1)))              # cell (j, i) at (j + 1, i + 1)
        above = z > level
        rows = slice(off, off + r1 - r0)
        h = (above[rows, :-1] != above[rows, 1:]) \
            & (ok[off:off + r1 - r0, 1:-1] | ok[off + 1:off + 1 + r1 - r0, 1:-1])
        j, i = np.nonzero(h)
        ids.append((j + r0) * (nx - 1) + i)
        n = min(r1, ny - 1) - r0                        # vertical edges start on rows < ny - 1
        v = (above[off:off + n] != above[off + 1:off + 1 + n]) \
            & (ok[off + 1:off + 1 + n, :-1] | ok[off + 1:off + 1 + n, 1:])
        j, i = np.nonzero(v)
        ids.append(ny * (nx - 1) + (j + r0) * nx + i)
    return np.concatenate(ids)


def check_contours(x, y, Z, level: float, polylines) -> list[str]:
    """Marching-squares properties: every vertex lies on a grid edge of a
    cell with no NaN corner, and the linear interpolation of Z along that
    edge equals the level; and the contour is complete: every such edge whose
    ends lie on either side of the level holds a vertex.  x indexes the
    columns of Z, y its rows."""
    level = float(level)
    if not polylines:
        return [f"level {level!r}: no polyline"]
    pts = np.array([p for line in polylines for p in line], dtype=float)
    if any(len(line) < 2 for line in polylines):
        return [f"level {level!r}: polyline with fewer than 2 vertices"]
    px, py = pts[:, 0], pts[:, 1]
    nx, ny = len(x), len(y)
    value = np.full(len(pts), np.nan)
    clean = np.zeros(len(pts), dtype=bool)

    # vertex on a horizontal edge: y equals a grid row, x between two columns
    jc = np.clip(np.searchsorted(y, py), 0, ny - 1)
    on_row = y[jc] == py
    i = np.clip(np.searchsorted(x, px, side="right") - 1, 0, nx - 2)
    t = (px - x[i]) / (x[i + 1] - x[i])
    row_val = Z[jc, i] + t * (Z[jc, i + 1] - Z[jc, i])
    row_clean = _cell_ok(Z, jc - 1, i) | _cell_ok(Z, jc, i)
    value = np.where(on_row, row_val, value)
    clean = np.where(on_row, row_clean, clean)

    # vertex on a vertical edge: x equals a grid column, y between two rows
    ic = np.clip(np.searchsorted(x, px), 0, nx - 1)
    on_col = (x[ic] == px) & ~on_row
    j2 = np.clip(np.searchsorted(y, py, side="right") - 1, 0, ny - 2)
    t2 = (py - y[j2]) / (y[j2 + 1] - y[j2])
    col_val = Z[j2, ic] + t2 * (Z[j2 + 1, ic] - Z[j2, ic])
    col_clean = _cell_ok(Z, j2, ic - 1) | _cell_ok(Z, j2, ic)
    value = np.where(on_col, col_val, value)
    clean = np.where(on_col, col_clean, clean)

    # edges that hold a vertex (ids as in _crossed_edges); a vertex on a
    # node covers every edge that meets there
    h_base = ny * (nx - 1)
    node = on_row & (x[ic] == px)
    jn, inn = jc[node], ic[node]
    got = np.concatenate([
        jc[on_row] * (nx - 1) + i[on_row],
        h_base + j2[on_col] * nx + ic[on_col],
        (jn * (nx - 1) + inn - 1)[inn > 0],
        (jn * (nx - 1) + inn)[inn < nx - 1],
        (h_base + (jn - 1) * nx + inn)[jn > 0],
        (h_base + jn * nx + inn)[jn < ny - 1],
    ])
    want = _crossed_edges(Z, level)

    problems = []
    missing = np.setdiff1d(want, got).size
    if missing:
        problems.append(f"level {level!r}: {missing} of {want.size} crossed edges "
                        f"hold no vertex")
    off_edge = ~(on_row | on_col)
    if off_edge.any():
        problems.append(f"level {level!r}: {int(off_edge.sum())} vertices off the grid edges")
    if (~clean & ~off_edge).any():
        problems.append(f"level {level!r}: {int((~clean & ~off_edge).sum())} vertices "
                        f"on edges of cells with a NaN corner")
    err = np.abs(value - level)
    scale = LEVEL_TOL * (1.0 + abs(level))
    wrong = ~off_edge & ~(err <= scale)
    if wrong.any():
        problems.append(f"level {level!r}: {int(wrong.sum())} vertices off the level "
                        f"(max error {float(np.nanmax(err[wrong])):.3e})")
    return problems


# --------------------------------------------------------------------- orbit

def check_orbit(mu: float, eps: float, I_star: float, legs, I_start: float | None = None):
    """Property checks of a pseudo-orbit.

    ``legs`` is a list of (mechanism, [(I, theta), ...], model_time).  The
    itinerary must be chained, reach I_star, keep I fixed on inner legs, and
    every scattering step must equal eps times the finite-difference
    gradient of the reference reduced function: on the primary crossing, or
    inside the breakage band on one of the admissible crossings.
    """
    problems = []
    if not legs:
        return ["orbit has no legs"]
    if I_start is not None and legs[0][1][0][0] != I_start:
        problems.append(f"orbit starts at I={legs[0][1][0][0]!r}, not {I_start!r}")
    for k in range(1, len(legs)):
        if legs[k][1][0] != legs[k - 1][1][-1]:
            problems.append(f"leg {k} does not start where leg {k - 1} ends")
    final_I = legs[-1][1][-1][0]
    if not final_I >= I_star:
        problems.append(f"orbit ends at I={final_I!r} < I*={I_star!r}")

    starts, ends = [], []
    for mech, pts, _ in legs:
        if mech == "inner":
            if len(pts) != 2 or pts[0][0] != pts[1][0]:
                problems.append(f"inner leg changes I: {pts!r}")
        elif mech == "scattering":
            starts.extend(pts[:-1])
            ends.extend(pts[1:])
        else:
            problems.append(f"unknown mechanism {mech!r}")
    if not starts:
        return problems + ["orbit has no scattering step"]
    starts = np.array(starts)
    ends = np.array(ends)
    I0, th0 = starts[:, 0], starts[:, 1]
    step_dtheta = (ends[:, 0] - I0) / eps                      # eps * dL/dtheta
    step_dI = -np.array([math.remainder(d, TWO_PI) for d in ends[:, 1] - th0]) / eps

    cell, sigma = ref.all_crossings(mu, I0, th0)
    primary = ref.pick_primary(cell, sigma, len(I0))
    d_i, d_t = ref.finite_diff_gradient(mu, I0[cell], th0[cell], sigma, FD_H)
    err = np.maximum(np.abs(d_i - step_dI[cell]) / (1.0 + np.abs(d_i)),
                     np.abs(d_t - step_dtheta[cell]) / (1.0 + np.abs(d_t)))
    match = err <= FD_TOL
    is_primary = sigma == primary[cell]
    banded = ref.in_breakage_band(mu, I0)
    ok_primary = np.zeros(len(I0), dtype=bool)
    ok_any = np.zeros(len(I0), dtype=bool)
    np.logical_or.at(ok_primary, cell, match & is_primary)
    np.logical_or.at(ok_any, cell, match)
    ok = ok_primary | (banded & ok_any)
    for k in np.nonzero(~ok)[0][:5]:
        errs = err[cell == k]
        problems.append(f"step from I={float(I0[k])!r} theta={float(th0[k])!r} matches no reference "
                        f"gradient (best scaled error "
                        f"{float(errs.min()) if errs.size else math.inf:.3e})")
    if (~ok).sum() > 5:
        problems.append(f"... {int((~ok).sum())} mismatching steps in all")
    return problems


def check_model_time(mu: float, I_star: float, legs, total: float) -> list[str]:
    """Inner legs take a finite time; a scattering leg takes n * T_h, which is
    NaN exactly where the travel-time constant is undefined (|mu| * max alpha
    over [0, I*] >= 1); the total is the sum over the legs."""
    problems = []
    A = float(ref.alpha(np.linspace(0.0, I_star, 4001)).max())
    undefined = abs(mu) * A >= 1.0
    for k, (mech, _, t) in enumerate(legs):
        if not (t >= 0.0 or (math.isnan(t) and mech == "scattering" and undefined)):
            problems.append(f"leg {k} ({mech}) has model time {t!r}")
    want = math.fsum(t for _, _, t in legs)
    if not (abs(total - want) <= 1e-12 * max(1.0, abs(want))
            or (math.isnan(total) and math.isnan(want))):
        problems.append(f"total_model_time {total!r} != sum over legs {want!r}")
    return problems


# ----------------------------------------------------------------------- cli

def _lines(text: str):
    """The lines of text, one at a time (io.StringIO would hold a copy of
    the whole text at 4 bytes a character)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _csv_iter(text: str, header: list[str]):
    reader = csv.reader(_lines(text))
    got = next(reader, None)
    if got != header:
        raise ValueError(f"header {got!r}, expected {header!r}")
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"row {row!r} has {len(row)} fields, expected {len(header)}")
        yield row


def _csv_rows(text: str, header: list[str]):
    return list(_csv_iter(text, header))


def _json_keys(text: str, keys: list[str]) -> dict:
    doc = json.loads(text)
    if sorted(doc) != sorted(keys):
        raise ValueError(f"keys {sorted(doc)!r}, expected {sorted(keys)!r}")
    return doc


def check_regime(text: str, mu: float) -> list[str]:
    doc = _json_keys(text, ["mu", "regime", "mu_low", "mu_high", "I_plus",
                            "I_plusplus", "boundary"])
    mu_low, mu_high = ref.regime_thresholds()
    problems = []
    if abs(doc["mu_low"] - mu_low) > 1e-9 or abs(doc["mu_high"] - mu_high) > 1e-9:
        problems.append(f"thresholds {doc['mu_low']!r}, {doc['mu_high']!r}; "
                        f"dense scan gives {mu_low!r}, {mu_high!r}")
    want = "single" if abs(mu) < mu_low else "tangency" if abs(mu) <= mu_high else "holes"
    if doc["regime"] != want or doc["mu"] != mu:
        problems.append(f"regime {doc['regime']!r} at mu={doc['mu']!r}, expected {want!r}")
    for key in ("I_plus", "I_plusplus"):
        I = doc[key]
        if I is not None and abs(float(ref.beta(I)) - 1.0 / abs(mu)) > 1e-9 \
                and abs(float(ref.alpha(I)) - 1.0 / abs(mu)) > 1e-9:
            problems.append(f"{key}={I!r} solves neither alpha = 1/mu nor beta = 1/mu")
    return problems


def check_crests(text: str, mu: float, I: float, grid: int) -> list[str]:
    rows = _csv_rows(text, ["branch", "phi", "s", "residual"])
    problems = []
    if len(rows) != 2 * grid or {r[0] for r in rows} != {"max", "min"}:
        problems.append(f"{len(rows)} crest rows, expected {2 * grid} over branches max/min")
    vals = np.array([[float(v) for v in r[1:]] for r in rows])
    mine = mu * ref.alpha_signed(I) * np.sin(vals[:, 0]) + np.sin(vals[:, 1])
    if np.abs(vals[:, 2]).max() > 1e-12 or np.abs(mine).max() > 1e-12:
        problems.append(f"crest residual {np.abs(vals[:, 2]).max():.3e} "
                        f"(recomputed {np.abs(mine).max():.3e}) > 1e-12")
    return problems


def check_portrait_files(grid_text: str, contour_text: str, grid: int) -> list[str]:
    # streamed, so that the harness holds no list of 160,000 rows
    values = np.fromiter((float(r[2]) for r in _csv_iter(grid_text, ["I", "theta", "value"])),
                         dtype=float)
    problems = []
    if len(values) != grid * grid:
        problems.append(f"{len(values)} grid rows, expected {grid * grid}")
    if not np.isnan(values).any():
        problems.append("holes regime portrait has no NaN cell")
    if not np.isfinite(values[~np.isnan(values)]).all():
        problems.append("grid holds an infinite value")
    levels = set()
    for r in _csv_iter(contour_text, ["level", "polyline", "vertex", "I", "theta"]):
        levels.add(float(r[0]))
        # polyline and vertex are indices, I and theta finite floats
        if int(r[1]) < 0 or int(r[2]) < 0 or not all(math.isfinite(float(v)) for v in r[3:]):
            problems.append(f"bad contour row {r!r}")
            break
    if len(levels) != 12:
        problems.append(f"{len(levels)} contour levels, expected 12")
    return problems


def check_highways(text: str, mu: float) -> list[str]:
    rows = _csv_rows(text, ["side", "I", "theta", "psi", "residual"])
    if {r[0] for r in rows} != {"left", "right"}:
        return [f"sides {sorted({r[0] for r in rows})!r}, expected left and right"]
    v = np.array([[float(x) for x in r[1:]] for r in rows])
    I, theta, psi, res = v.T
    xi = -np.arcsin(mu * ref.alpha_signed(I) * np.sin(psi))
    gap = ref.amplitude_10(mu, I) * np.cos(psi) + ref.A01 * (np.cos(xi) - 1.0)
    problems = []
    if np.abs(res).max() > 1e-10 or np.abs(gap).max() > 1e-10:
        problems.append(f"lane level gap {np.abs(res).max():.3e} "
                        f"(recomputed {np.abs(gap).max():.3e}) > 1e-10")
    if np.abs(theta - (psi - I * xi)).max() > 1e-12:
        problems.append("lane theta != psi - I * xi(psi)")
    return problems


def check_tangency(text: str, mu: float) -> list[str]:
    rows = _csv_rows(text, ["I", "psi1", "psi2", "theta1", "theta2"])
    if not rows:
        return ["no tangency rows in a tangency-regime scan"]
    v = np.array([[float(x) for x in r] for r in rows])
    I, psi1, psi2, th1, th2 = v.T
    c = mu * ref.alpha_signed(I)
    problems = []
    for psi, th in ((psi1, th1), (psi2, th2)):
        u = c * np.sin(psi)
        dtheta = 1.0 + I * c * np.cos(psi) / np.sqrt(1.0 - u * u)
        if np.abs(dtheta).max() > 1e-9:
            problems.append(f"d theta/d psi = {np.abs(dtheta).max():.3e} at a tangency")
        if np.abs(th - (psi + I * np.arcsin(u))).max() > 1e-12:
            problems.append("tangency theta != psi - I * xi(psi)")
    if np.abs(psi1 + psi2 - TWO_PI).max() > 1e-12:
        problems.append("psi2 != 2 pi - psi1")
    return problems


def parse_orbit_csv(text: str):
    rows = _csv_rows(text, ["leg", "mechanism", "I", "theta", "model_time"])
    legs: list[tuple[str, list, float]] = []
    for r in rows:
        k = int(r[0])
        if k == len(legs):
            legs.append((r[1], [], float(r[4])))
        elif k != len(legs) - 1:
            raise ValueError(f"leg index {k} out of order")
        legs[k][1].append((float(r[2]), float(r[3])))
    return legs


def check_difftime(text: str) -> list[str]:
    d = _json_keys(text, ["Ts", "Ns", "Nss", "Th", "Ti", "C", "Td", "delta",
                          "asymptotic", "ratio", "inner_share"])
    want = d["Ns"] * d["Th"] + (d["Ns"] // d["Nss"]) * d["Ti"]
    if not abs(d["Td"] - want) <= 1e-12 * abs(want):
        return [f"Td {d['Td']!r} != Ns*Th + floor(Ns/Nss)*Ti = {want!r}"]
    return []


def check_epsstar(text: str, mu: float, I_star: float) -> list[str]:
    d = _json_keys(text, ["I_star", "eps_star", "envelope", "argmin_I"])
    env = 4.0 * math.pi * abs(mu) * I_star * math.exp(-math.pi * I_star / 2.0)
    problems = []
    if not d["eps_star"] > 0.0 or not 0.0 <= d["argmin_I"] <= I_star:
        problems.append(f"eps_star {d['eps_star']!r} at I={d['argmin_I']!r}")
    if abs(d["envelope"] - env) > 1e-12 * env:
        problems.append(f"envelope {d['envelope']!r} != {env!r}")
    return problems


def check_verify(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["verify printed nothing"]
    return [f"verify: {line}" for line in lines if not line.startswith("[PASS] ")]
