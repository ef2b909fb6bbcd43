"""Vectorized marching-squares contour extraction with NaN masking.

Each level is one NumPy pass over all cells: the 4-bit case index of every
cell is built at once, the crossing cells are picked in row-major order and
only those are interpolated. Cells with any undefined corner are skipped,
which is exactly what the phase-portrait command needs: holes in the
reduced function show up as gaps in the level curves.
"""
from __future__ import annotations

import numpy as np

# corner k of cell (j, i) sits at (x[i + _DX[k]], y[j + _DY[k]]):
# corners are 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1)
_DX = np.array([0, 1, 1, 0])
_DY = np.array([0, 0, 1, 1])

# edge index -> (corner, corner)
_EDGE_CORNERS = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])

# case index (bit k set <=> corner k above level) -> edge pairs joined by
# slot 0 and slot 1. Only the saddles 5 and 10 use slot 1; elsewhere it
# repeats slot 0 and is masked off. A saddle whose cell mean is not above
# the level takes the pairs of the other saddle (case 15 - c).
_CASE_EDGES = np.array([
    [(0, 0), (0, 0)],  # 0: no crossing
    [(3, 0), (3, 0)],  # 1
    [(0, 1), (0, 1)],  # 2
    [(3, 1), (3, 1)],  # 3
    [(1, 2), (1, 2)],  # 4
    [(3, 2), (0, 1)],  # 5: saddle
    [(0, 2), (0, 2)],  # 6
    [(2, 3), (2, 3)],  # 7
    [(2, 3), (2, 3)],  # 8
    [(0, 2), (0, 2)],  # 9
    [(3, 0), (1, 2)],  # 10: saddle
    [(1, 2), (1, 2)],  # 11
    [(3, 1), (3, 1)],  # 12
    [(0, 1), (0, 1)],  # 13
    [(3, 0), (3, 0)],  # 14
    [(0, 0), (0, 0)],  # 15: no crossing
])


def contour_segments(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     level: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Line segments of the level set of z (shape (len(y), len(x))).

    Segments come in row-major cell order, the two segments of a saddle
    cell in table order; segments with equal ends are dropped. A grid with
    fewer than 2 rows or columns has none. Raises ValueError when z's shape
    is not (len(y), len(x)).
    """
    x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
    if z.shape != (len(y), len(x)):
        raise ValueError(f"z has shape {z.shape}, expected (len(y), len(x)) = "
                         f"{(len(y), len(x))}")

    above = (z > level).view(np.uint8)
    case = above[1:, :-1] << 3
    case |= above[1:, 1:] << 2
    case |= above[:-1, 1:] << 1
    case |= above[:-1, :-1]
    nan = np.isnan(z)
    crossing = nan[:-1, :-1] | nan[:-1, 1:]
    crossing |= nan[1:, 1:]
    crossing |= nan[1:, :-1]
    np.logical_not(crossing, out=crossing)
    crossing &= (case != 0) & (case != 15)
    jj, ii = np.divmod(np.flatnonzero(crossing), crossing.shape[1])

    c = case[jj, ii].astype(np.intp)
    saddle = (c == 5) | (c == 10)
    js, is_ = jj[saddle], ii[saddle]
    mean = 0.25 * (((z[js, is_] + z[js, is_ + 1]) + z[js + 1, is_ + 1]) + z[js + 1, is_])
    c[saddle] = np.where(mean <= level, 15 - c[saddle], c[saddle])

    # corners[n, slot, end, k]: corner k of the edge at that end of the segment
    corners = _EDGE_CORNERS[_CASE_EDGES[c]]
    xi = ii[:, None, None, None] + _DX[corners]
    yj = jj[:, None, None, None] + _DY[corners]
    px, py, pv = x[xi], y[yj], z[yj, xi]
    t = (level - pv[..., 0]) / (pv[..., 1] - pv[..., 0])
    t = np.clip(t, 0.0, 1.0)
    sx = px[..., 0] + t * (px[..., 1] - px[..., 0])
    sy = py[..., 0] + t * (py[..., 1] - py[..., 0])

    keep = (sx[..., 0] != sx[..., 1]) | (sy[..., 0] != sy[..., 1])
    keep[:, 1] &= saddle
    ends = np.stack([sx, sy], axis=-1)[keep].tolist()
    return [(tuple(a), tuple(b)) for a, b in ends]


def join_segments(segs, decimals: int = 9) -> list[list[tuple[float, float]]]:
    """Chain segments into polylines by matching rounded endpoints.

    Endpoint keys are rounded with ``np.round``, so float and np.float64
    points give the same chaining.
    """
    keys = np.round(np.asarray(segs, dtype=np.float64), decimals).reshape(-1, 4).tolist()
    seen: set[frozenset] = set()
    unique = []
    for (a, b), (ax, ay, bx, by) in zip(segs, keys):
        ka, kb = (ax, ay), (bx, by)
        if ka == kb:
            continue  # zero length after rounding
        pair = frozenset((ka, kb))
        if pair in seen:
            continue  # duplicate from a level hitting a grid node exactly
        seen.add(pair)
        unique.append((a, b, ka, kb))
    adjacency: dict[tuple, list[int]] = {}
    for n, (_, _, ka, kb) in enumerate(unique):
        adjacency.setdefault(ka, []).append(n)
        adjacency.setdefault(kb, []).append(n)
    used = [False] * len(unique)
    polylines = []
    for start, (a, b, ka, kb) in enumerate(unique):
        if used[start]:
            continue
        used[start] = True
        # extend forward from b, then backward from a
        forward, backward = [a, b], []
        for line, tip in ((forward, kb), (backward, ka)):
            while True:
                nxt = next((m for m in adjacency[tip] if not used[m]), None)
                if nxt is None:
                    break
                used[nxt] = True
                pa, pb, qa, qb = unique[nxt]
                if qa == tip:
                    line.append(pb)
                    tip = qb
                else:
                    line.append(pa)
                    tip = qa
        backward.reverse()
        polylines.append(backward + forward)
    return polylines


def contour_polylines(x, y, z, level):
    """Level curves of z as polylines of (x, y) points."""
    return join_segments(contour_segments(x, y, z, level))
