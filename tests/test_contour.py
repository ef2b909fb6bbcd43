import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatmap import ModelParams
from scatmap.cli import fmt, main
from scatmap.contour import contour_polylines, contour_segments
from scatmap.gridkernels import reduced_poincare_grid


# ----------------------------------------------------- reference: cell loop
# The per-cell marching squares that the vectorized pass replaced, kept
# independent of scatmap.contour. The new code must match it bit for bit.

_REF_EDGES = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}
_REF_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
    5: [(3, 2), (0, 1)],
    10: [(3, 0), (1, 2)],
}
_REF_CASES_FLIPPED = {5: [(3, 0), (1, 2)], 10: [(3, 2), (0, 1)]}


def _ref_interp(xa, ya, va, xb, yb, vb, level):
    t = (level - va) / (vb - va)
    t = min(max(t, 0.0), 1.0)
    return (xa + t * (xb - xa), ya + t * (yb - ya))


def ref_segments(x, y, z, level):
    segs = []
    ny, nx = z.shape
    for j in range(ny - 1):
        for i in range(nx - 1):
            corners = (
                (x[i], y[j], z[j, i]),
                (x[i + 1], y[j], z[j, i + 1]),
                (x[i + 1], y[j + 1], z[j + 1, i + 1]),
                (x[i], y[j + 1], z[j + 1, i]),
            )
            vals = [c[2] for c in corners]
            if any(math.isnan(v) for v in vals):
                continue
            idx = sum(1 << k for k, v in enumerate(vals) if v > level)
            pairs = _REF_CASES[idx]
            if idx in (5, 10):
                if 0.25 * sum(vals) <= level:
                    pairs = _REF_CASES_FLIPPED[idx]
            for ea, eb in pairs:
                ca, cb = _REF_EDGES[ea]
                cc, cd = _REF_EDGES[eb]
                pa = _ref_interp(*corners[ca][:2], vals[ca], *corners[cb][:2], vals[cb], level=level)
                pb = _ref_interp(*corners[cc][:2], vals[cc], *corners[cd][:2], vals[cd], level=level)
                if pa != pb:
                    segs.append((pa, pb))
    return segs


def ref_join(segs, decimals=9):
    key = lambda p: (round(p[0], decimals), round(p[1], decimals))
    seen = set()
    unique = []
    for a, b in segs:
        ka, kb = key(a), key(b)
        if ka == kb:
            continue
        pair = frozenset((ka, kb))
        if pair in seen:
            continue
        seen.add(pair)
        unique.append((a, b))
    segs = unique
    adjacency = {}
    for n, (a, b) in enumerate(segs):
        adjacency.setdefault(key(a), []).append(n)
        adjacency.setdefault(key(b), []).append(n)
    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        a, b = segs[start]
        line = [a, b]
        for end in (True, False):
            while True:
                tip = key(line[-1] if end else line[0])
                nxt = next((m for m in adjacency.get(tip, []) if not used[m]), None)
                if nxt is None:
                    break
                used[nxt] = True
                pa, pb = segs[nxt]
                new_pt = pb if key(pa) == tip else pa
                if end:
                    line.append(new_pt)
                else:
                    line.insert(0, new_pt)
        polylines.append(line)
    return polylines


def _bits(points):
    """Exact bit patterns of a sequence of points, for order-and-bit equality."""
    return [tuple(float(v).hex() for v in p) for p in points]


def assert_matches_reference(x, y, z, level):
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    got = contour_segments(x, y, z, level)
    want = ref_segments(x, y, z, level)
    assert [_bits(s) for s in got] == [_bits(s) for s in want]
    got_lines = contour_polylines(x, y, z, level)
    want_lines = ref_join(want)
    assert [_bits(line) for line in got_lines] == [_bits(line) for line in want_lines]
    return got


# ------------------------------------------------------------ geometry tests

def test_circle_level_set():
    x = np.linspace(-2, 2, 201)
    y = np.linspace(-2, 2, 201)
    X, Y = np.meshgrid(x, y)
    Z = X**2 + Y**2
    polys = contour_polylines(x, y, Z, 1.0)
    pts = [p for poly in polys for p in poly]
    assert pts
    radii = [math.hypot(px, py) for px, py in pts]
    assert max(abs(r - 1.0) for r in radii) < 5e-3
    # one closed-ish loop
    assert len(polys) <= 2


def test_line_level_set():
    x = np.linspace(0, 1, 51)
    y = np.linspace(0, 1, 51)
    X, Y = np.meshgrid(x, y)
    polys = contour_polylines(x, y, Y - 0.5, 0.0)
    pts = [p for poly in polys for p in poly]
    assert all(abs(py - 0.5) < 1e-12 for _, py in pts)


def test_nan_cells_skipped():
    x = np.linspace(-2, 2, 101)
    y = np.linspace(-2, 2, 101)
    X, Y = np.meshgrid(x, y)
    Z = X**2 + Y**2
    Z[(X > 0) & (np.abs(Y) < 0.5)] = np.nan
    segs = contour_segments(x, y, Z, 1.0)
    for (xa, ya), (xb, yb) in segs:
        assert not (xa > 0 and abs(ya) < 0.4)
        assert not (xb > 0 and abs(yb) < 0.4)


# ---------------------------------------------------- parity with the loop

_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@st.composite
def _grids(draw):
    ny = draw(st.integers(2, 9))
    nx = draw(st.integers(2, 9))
    z = np.array(draw(st.lists(_CELL_VALUES, min_size=ny * nx, max_size=ny * nx)),
                 dtype=float).reshape(ny, nx)
    x = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=nx, max_size=nx)))
    y = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=ny, max_size=ny)))
    level = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 3.0)))
    return x, y, z, level


@given(_grids())
@settings(max_examples=300, deadline=None)
def test_parity_random_grids_with_holes(grid):
    assert_matches_reference(*grid)


@pytest.mark.parametrize("z,level,nseg", [
    ([[2.0, 0.0], [0.0, 1.0]], 0.5, 2),   # case 5, cell mean above the level
    ([[2.0, 0.0], [0.0, 1.0]], 0.9, 2),   # case 5, cell mean below
    ([[1.0, 0.0], [0.0, 1.0]], 0.5, 2),   # case 5, cell mean equal: flipped
    ([[0.0, 2.0], [1.0, 0.0]], 0.5, 2),   # case 10, cell mean above
    ([[0.0, 2.0], [1.0, 0.0]], 0.9, 2),   # case 10, cell mean below
    ([[0.0, 1.0], [1.0, 0.0]], 0.5, 2),   # case 10, cell mean equal: flipped
    # case 5 whose mean equals the level only when summed in corner order
    ([[-0.7, -0.9], [-0.9, -0.3]], 0.25 * (((-0.7 + -0.9) + -0.3) + -0.9), 2),
])
def test_parity_saddles(z, level, nseg):
    segs = assert_matches_reference([0.0, 1.0], [0.0, 1.0], z, level)
    assert len(segs) == nseg


def test_saddle_orientation_follows_cell_mean():
    # case 5: corners 0 and 2 above. With the cell mean above the level the
    # segments cut off the below corners 3 and 1; with it below, corners 0, 2
    z = [[2.0, 0.0], [0.0, 1.0]]
    above = contour_segments([0.0, 1.0], [0.0, 1.0], z, 0.5)
    below = contour_segments([0.0, 1.0], [0.0, 1.0], z, 0.9)
    flat = lambda segs: [v for seg in segs for p in seg for v in p]
    assert flat(above) == pytest.approx([0.0, 0.75, 0.5, 1.0, 0.75, 0.0, 1.0, 0.5])
    assert flat(below) == pytest.approx([0.0, 0.55, 0.55, 0.0, 1.0, 0.9, 0.9, 1.0])


def test_level_through_node_drops_zero_length_segment():
    # corner 0 sits on the level, the other three are above: both edge
    # points fall on corner 0, so the segment has equal ends
    assert assert_matches_reference([0.0, 1.0], [0.0, 1.0],
                                    [[0.0, 1.0], [1.0, 1.0]], 0.0) == []


def test_level_along_grid_row_joins_duplicate_once():
    # both cells report the segment along the middle row
    z = [[2.0, 2.0], [1.0, 1.0], [2.0, 2.0]]
    segs = assert_matches_reference([0.0, 1.0], [0.0, 1.0, 2.0], z, 1.0)
    assert len(segs) == 2
    assert contour_polylines([0.0, 1.0], [0.0, 1.0, 2.0], np.array(z), 1.0) == [
        [(0.0, 1.0), (1.0, 1.0)]]


def test_parity_holes_regime_grid():
    I = np.linspace(-4.0, 4.0, 41)
    theta = np.linspace(0.0, 2 * math.pi, 41, endpoint=False)
    Z = reduced_poincare_grid(ModelParams(a00=0.0, a10=1.5, a01=1.0, eps=0.01), I, theta)
    assert np.isnan(Z).any()
    finite = Z[np.isfinite(Z)]
    for level in np.linspace(finite.min(), finite.max(), 7)[1:-1]:
        assert assert_matches_reference(theta, I, Z, level)


# -------------------------------------------------------- malformed input

@pytest.mark.parametrize("nx,ny,shape", [
    (4, 5, (5, 5)),   # x shorter than z's rows
    (5, 4, (5, 5)),   # y shorter than z's columns
    (5, 5, (25,)),    # z not two-dimensional
])
def test_shape_mismatch_rejected(nx, ny, shape):
    with pytest.raises(ValueError):
        contour_segments(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         np.zeros(shape), 0.5)


@pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1), (0, 0)])
def test_degenerate_grid_is_empty(nx, ny):
    z = np.arange(nx * ny, dtype=float).reshape(ny, nx)
    assert contour_segments(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                            z, 0.5) == []


# ------------------------------------------------------- CLI contour rows

def test_cli_contours_match_reference(tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    code = main(["portrait", "--mu", "0.9", "--grid", "40", "--nlevels", "5",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    I = np.linspace(-4.0, 4.0, 40)
    theta = np.linspace(0.0, 2 * math.pi, 40, endpoint=False)
    Z = reduced_poincare_grid(ModelParams(a00=0.0, a10=0.9, a01=1.0, eps=0.01), I, theta)
    finite = Z[np.isfinite(Z)]
    rows = ["level,polyline,vertex,I,theta"]
    for level in np.linspace(finite.min(), finite.max(), 7)[1:-1]:
        for pid, line in enumerate(ref_join(ref_segments(theta, I, Z, level))):
            for vid, (th, i) in enumerate(line):
                rows.append(",".join([fmt(float(level)), str(pid), str(vid),
                                      fmt(float(i)), fmt(float(th))]))
    assert len(rows) > 1
    assert (tmp_path / "portrait.contours.csv").read_text() == "\n".join(rows) + "\n"
