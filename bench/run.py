"""scatmap benchmark: end-to-end timings and a traced per-layer run.

    python3 bench/run.py --workload {portrait,orbit,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md for the workloads, the
metrics and the checks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_PROBES = 3
IMPORT_PROBES = 3
# machine-speed calibration (see Speed): a fixed pure-Python loop, and the
# loop time that defines the reference speed (the loop takes 25 to 34 ms on
# the 2-core reference VM)
CAL_LOOPS = 300_000
CAL_REF_S = 0.030
TWO_PI = 2.0 * math.pi

# portrait: the README portrait (scatmap portrait --grid 400 --nlevels 12)
# at each regime's representative mu
PORTRAIT_MUS = (0.6, 0.9, 1.5)
GRID = 400
NLEVELS = 12
BAND = (2.0, 3.0)          # |I| range of the rows checked in full
SAMPLED_ROWS = 16          # seeded rows checked outside the band

# orbit: per mu two draws a round, one in each half of log(eps) over
# [0.01, 0.05]; the I* halves of [1, 3] are paired with them low-low and
# high-high in even rounds and crosswise in odd ones, so that two rounds
# cover all four quarters of the (eps, I*) box
ORBIT_MUS = (0.6, 0.9, 1.5)
EPS_RANGE = (0.01, 0.05)
ISTAR_RANGE = (1.0, 3.0)

# cli: the README examples; output goes to a fresh directory per call
CLI_EXAMPLES = (
    "regime --mu 0.9",
    "crests --mu 0.6 --I 1.2 --grid 400",
    "portrait --mu 1.5 --grid 400 --nlevels 12 --out portrait.csv",
    "highways --mu 0.6 --imin -4 --imax 4",
    "tangency --mu 0.9 --imin 1.1 --imax 3.0",
    "orbit --mu 0.6 --eps 0.05 --Istar 4",
    "difftime --mu 0.6 --eps 1e-3 --Istar 4",
    "epsstar --mu 0.9 --Istar 4",
    "verify",
)
CLI_SHIM = "import sys; from scatmap.cli import main; sys.exit(main())"

END_TO_END = {"setup_s": "s", "op_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "gridkernels.self_s": "s", "gridkernels.cells_per_s": "1/s",
    "gridkernels.mismatch_cells": "count",
    "contour.segments_s": "s", "contour.join_s": "s", "contour.vertices": "count",
    "scattering.self_s": "s", "scattering.crossing_solves": "count",
    "scattering.crossing_misses": "count",
    "diffusion.self_s": "s", "diffusion.error_bound_s": "s",
    "diffusion.solves_per_point": "solves/point", "diffusion.points_per_s": "1/s",
    "highways.self_s": "s", "highways.lane_solves": "count",
    "crests.self_s": "s", "crests.tangency_calls": "count",
    "verify.self_s": "s", "cli.self_s": "s",
    "import.scatmap_s": "s", "import.scipy_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


def program_env() -> dict[str, str]:
    """Environment for child interpreters: the program comes from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# --------------------------------------------------------------- workloads

class Speed:
    """The machine's speed over a run, sampled between the program's calls.

    The reference machine switches between a fast and a slow state, in a mix
    that changes over minutes, so that one run can be 1.5x slower than the
    next.  A fixed loop is timed in the harness between timed calls (never
    inside them).  The times of operations that run in the harness process
    are scaled by CAL_REF_S over the loop's mean time, to the seconds they
    would take on a machine where the loop takes CAL_REF_S.  Work done in
    child processes (set-up probes, CLI calls) may run on the other core
    and is reported as wall time.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_LOOPS):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return CAL_REF_S / statistics.fmean(self.samples)


class Op:
    """One operation: what to run, how long it took, and what its check found."""

    def __init__(self, name: str, arg):
        self.name = name
        self.arg = arg
        self.seconds = 0.0
        self.output = None
        self.known_fault = 0      # cells of the grid crossing-selection fault
        self.problems: list[str] = []


class Portrait:
    """The README portrait at mu = 0.6, 0.9 and 1.5, in-process."""

    IN_PROCESS = True

    def __init__(self, seed: int):
        import numpy as np
        from scatmap import gridkernels, contour, ModelParams
        self.np, self.gridkernels, self.contour = np, gridkernels, contour
        self.ModelParams = ModelParams
        rng = np.random.default_rng(seed)
        self.I = np.linspace(-4.0, 4.0, GRID)
        self.theta = np.linspace(0.0, TWO_PI, GRID, endpoint=False)
        band = (np.abs(self.I) > BAND[0]) & (np.abs(self.I) < BAND[1])
        others = np.nonzero(~band)[0]
        self.rows = {mu: np.sort(np.concatenate([
            np.nonzero(band)[0], rng.choice(others, SAMPLED_ROWS, replace=False)]))
            for mu in PORTRAIT_MUS}
        self.order = [PORTRAIT_MUS[k] for k in rng.permutation(len(PORTRAIT_MUS))]

    def round(self, k: int) -> list[Op]:
        return [Op(f"portrait mu={mu}", mu) for mu in self.order]

    def run(self, op: Op, traced: bool, speed: Speed):
        """Grid, then one contour call per level; the speed is sampled
        between the calls and op.seconds is the sum of the calls' times."""
        np = self.np
        params = self.ModelParams(0.0, op.arg, 1.0, eps=0.01)
        t0 = time.perf_counter()
        Z = self.gridkernels.reduced_poincare_grid(params, self.I, self.theta)
        finite = Z[np.isfinite(Z)]
        levels = list(np.linspace(finite.min(), finite.max(), NLEVELS + 2)[1:-1])
        op.seconds = time.perf_counter() - t0
        contours = []
        for level in levels:
            speed.sample()
            t0 = time.perf_counter()
            contours.append(self.contour.contour_polylines(self.theta, self.I, Z, level))
            op.seconds += time.perf_counter() - t0
        op.output = (Z, levels, contours)

    def check(self, op: Op):
        Z, levels, contours = op.output
        op.known_fault, op.problems = checks.check_grid_rows(
            op.arg, self.I, self.theta, Z, self.rows[op.arg])
        for level, lines in zip(levels, contours):
            op.problems += checks.check_contours(self.theta, self.I, Z, level, lines)

    def same(self, a: Op, b: Op) -> bool:
        np = self.np
        return (np.array_equal(a.output[0], b.output[0], equal_nan=True)
                and a.output[1:] == b.output[1:])


class Orbit:
    """Seeded drift pseudo-orbits, each with fresh parameters."""

    IN_PROCESS = True

    def __init__(self, seed: int):
        import numpy as np
        from scatmap import diffusion, ModelParams
        self.diffusion, self.ModelParams = diffusion, ModelParams
        self.rng = np.random.default_rng(seed)
        self.rounds: list[list[tuple[float, float, float]]] = []   # (mu, eps, I*)

    def round(self, k: int) -> list[Op]:
        while len(self.rounds) <= k:
            cross = len(self.rounds) % 2
            lo, hi = math.log(EPS_RANGE[0]), math.log(EPS_RANGE[1])
            draws = []
            for mu in ORBIT_MUS:
                for half in (0, 1):
                    u, v = self.rng.random(2)
                    eps = math.exp(lo + (hi - lo) * (half + u) / 2.0)
                    I_star = ISTAR_RANGE[0] + (ISTAR_RANGE[1] - ISTAR_RANGE[0]) \
                        * ((half ^ cross) + v) / 2.0
                    draws.append((mu, eps, I_star))
            self.rng.shuffle(draws)
            self.rounds.append(draws)
        return [Op(f"orbit mu={mu} eps={eps:.5f} I*={I_star:.4f}", (mu, eps, I_star))
                for mu, eps, I_star in self.rounds[k]]

    def run(self, op: Op, traced: bool, speed: Speed):
        mu, eps, I_star = op.arg
        clear_caches()
        params = self.ModelParams(0.0, mu, 1.0, eps=eps)
        t0 = time.perf_counter()
        orbit = self.diffusion.build_pseudo_orbit_general(params, I_star)
        op.seconds = time.perf_counter() - t0
        legs = [(leg.mechanism.value, [(p.I, p.theta) for p in leg.points], leg.model_time)
                for leg in orbit.legs]
        op.output = (legs, orbit.total_model_time)

    def check(self, op: Op):
        mu, eps, I_star = op.arg
        legs, total = op.output
        op.problems = (checks.check_orbit(mu, eps, I_star, legs, -I_star)
                       + checks.check_model_time(mu, I_star, legs, total))

    def same(self, a: Op, b: Op) -> bool:
        return repr(a.output) == repr(b.output)   # NaN-aware


class Cli:
    """The nine README CLI examples, each in a fresh interpreter."""

    IN_PROCESS = False

    def __init__(self, seed: int):
        import random
        order = list(CLI_EXAMPLES)
        random.Random(seed).shuffle(order)
        self.order = order
        self.env = program_env()
        self.layer_stats: list[dict] = []

    def round(self, k: int) -> list[Op]:
        return [Op(line.split()[0], line.split()) for line in self.order]

    def run(self, op: Op, traced: bool, speed: Speed):
        workdir = Path(tempfile.mkdtemp(dir=TMP))
        try:
            if traced:
                stats = workdir / "layers.json"
                cmd = [sys.executable, str(BENCH / "tracing.py"), str(stats), "--", *op.arg]
            else:
                cmd = [sys.executable, "-c", CLI_SHIM, *op.arg]
            with open(workdir / "stdout", "wb") as out:
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=workdir, env=self.env, stdout=out,
                                      stderr=subprocess.PIPE, timeout=170)
                op.seconds = time.perf_counter() - t0
            if traced and stats.exists():
                self.layer_stats.append(json.loads(stats.read_text()))
                stats.unlink()
            files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        op.output = (proc.returncode, files)
        if proc.returncode != 0:
            op.problems.append(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()[-300:]}")

    def check(self, op: Op):
        if op.problems:
            return
        files = op.output[1]
        out = files["stdout"]
        name = op.name
        try:
            if name == "regime":
                op.problems = checks.check_regime(out, 0.9)
            elif name == "crests":
                op.problems = checks.check_crests(out, 0.6, 1.2, 400)
            elif name == "portrait":
                op.problems = checks.check_portrait_files(
                    files["portrait.csv"], files["portrait.contours.csv"], 400)
            elif name == "highways":
                op.problems = checks.check_highways(out, 0.6)
            elif name == "tangency":
                op.problems = checks.check_tangency(out, 0.9)
            elif name == "orbit":
                legs = checks.parse_orbit_csv(out)
                op.problems = (checks.check_orbit(0.6, 0.05, 4.0, legs, -4.0)
                               + checks.check_model_time(0.6, 4.0, legs,
                                                         math.fsum(t for _, _, t in legs)))
            elif name == "difftime":
                op.problems = checks.check_difftime(out)
            elif name == "epsstar":
                op.problems = checks.check_epsstar(out, 0.9, 4.0)
            elif name == "verify":
                op.problems = checks.check_verify(out)
        except (ValueError, KeyError, StopIteration) as exc:
            op.problems = [f"malformed output: {exc!r}"]

    def same(self, a: Op, b: Op) -> bool:
        return a.output == b.output


WORKLOADS = {"portrait": Portrait, "orbit": Orbit, "cli": Cli}


def clear_caches():
    """Empty scatmap's lru_caches, as in a fresh `scatmap` call."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "scatmap" or name.startswith("scatmap.")):
            for obj in list(vars(mod).values()):
                # a traced name holds a wrapper around the cached function
                for target in (obj, getattr(obj, "__wrapped__", None)):
                    if hasattr(target, "cache_clear"):
                        target.cache_clear()


# --------------------------------------------------------------- measuring

def setup(workload: str, seed: int):
    """Import the program and build the workload's inputs."""
    import scatmap.cli  # noqa: F401  (imports every layer)
    import scatmap.contour  # noqa: F401
    import scatmap.gridkernels  # noqa: F401
    return WORKLOADS[workload](seed)


def timed_probe(cmd: list[str], env: dict | None = None) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd!r} failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed, proc.stderr.decode(errors="replace")


def import_times(env: dict) -> tuple[float, float]:
    """(scatmap, scipy) cumulative import seconds from `python -X importtime`.

    scatmap: every top-level scatmap* entry; scipy: every scipy* entry whose
    importer is not itself a scipy module."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import scatmap.cli"]
    _, err = timed_probe(cmd, env)
    pending: dict[int, list] = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = [name.strip(), int(cum) * 1e-6, pending.pop(level + 1, [])]
        pending.setdefault(level, []).append(node)
    roots = pending.get(0, [])
    scatmap_s = sum(n[1] for n in roots if n[0].split(".")[0] == "scatmap")
    scipy_s = 0.0
    todo = [(n, False) for n in roots]
    while todo:
        node, parent_scipy = todo.pop()
        is_scipy = node[0].split(".")[0] == "scipy"
        if is_scipy and not parent_scipy:
            scipy_s += node[1]
        todo.extend((c, is_scipy) for c in node[2])
    return scatmap_s, scipy_s


def run_op(work, op: Op, tracer, speed: Speed):
    """Run one operation, under the tracer if one is given; the speed of an
    in-process workload is sampled before it."""
    if work.IN_PROCESS:
        speed.sample()
    traced_here = tracer is not None and work.IN_PROCESS
    if traced_here:
        tracer.install()
    try:
        work.run(op, tracer is not None, speed)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        op.problems.append(f"raised {exc!r}")
    finally:
        if traced_here:
            tracer.uninstall()


def measure(work, seconds: float, tracer, speed: Speed):
    """Whole rounds until the next one would pass `seconds` of operation time.

    Each op is timed and checked.  With a tracer each op also runs a second
    time under it, before or after the untraced run by turns, so that any
    advantage of running second cancels out of the overhead; the traced
    output must equal the untraced one.  Returns (untraced ops, traced ops,
    round times).
    """
    plain_ops: list[Op] = []
    traced_ops: list[Op] = []
    round_times: list[float] = []
    while True:
        k = len(round_times)
        plain = work.round(k)
        twins = work.round(k) if tracer is not None else []
        for i, op in enumerate(plain):
            if tracer is not None and (len(plain_ops) + i) % 2:
                run_op(work, twins[i], tracer, speed)
            run_op(work, op, None, speed)
            if tracer is not None and not (len(plain_ops) + i) % 2:
                run_op(work, twins[i], tracer, speed)
            if not op.problems:
                work.check(op)
            if tracer is not None:
                twin = twins[i]
                twin.known_fault = op.known_fault
                twin.problems += op.problems
                if not work.same(twin, op):
                    twin.problems.append("traced output differs from the untraced output")
                twin.output = None
            op.output = None   # keep memory flat across rounds
        round_time = sum(op.seconds for op in plain + twins)
        plain_ops += plain
        traced_ops += twins
        round_times.append(round_time)
        if sum(round_times) + round_time > seconds:
            if work.IN_PROCESS:
                speed.sample()
            return plain_ops, traced_ops, round_times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def layer_metrics(work, plain: list[Op], traced_ops: list[Op], tracer, rounds: int,
                  env: dict) -> dict[str, float]:
    """Per-layer figures of the traced passes, per round."""
    if not work.IN_PROCESS:
        raw: dict[str, float] = {}
        for stats in work.layer_stats:
            for key, val in stats.items():
                raw[key] = raw.get(key, 0.0) + val
    else:
        raw = tracer.figures()
    out = {key: raw[key] / rounds for key in PER_LAYER if key in raw}
    grid_s = raw["gridkernels.self_s"]
    out["gridkernels.cells_per_s"] = raw["gridkernels.cells"] / grid_s if grid_s else 0.0
    points = raw["diffusion.orbit_points"]
    out["diffusion.solves_per_point"] = raw["diffusion.orbit_solves"] / points if points else 0.0
    build_s = raw["diffusion.build_s"]
    out["diffusion.points_per_s"] = points / build_s if build_s else 0.0
    out["gridkernels.mismatch_cells"] = sum(op.known_fault for op in plain) / rounds
    samples = [import_times(env) for _ in range(IMPORT_PROBES)]
    out["import.scatmap_s"] = statistics.median(s[0] for s in samples)
    out["import.scipy_s"] = statistics.median(s[1] for s in samples)
    base = sum(op.seconds for op in plain)
    extra = sum(op.seconds for op in traced_ops) - base
    out["trace.overhead_s"] = extra / rounds
    out["trace.overhead_pct"] = 100.0 * extra / base
    return {key: out[key] for key in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program, build the inputs and exit (times set-up)")
    args = ap.parse_args(argv)

    if not (SRC / "scatmap" / "__init__.py").is_file():
        print(f"bench: no scatmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = program_env()

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    speed = Speed()
    if not args.trace:   # only the untraced run reports setup_s
        probe = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"]
        setup_samples = [timed_probe(probe, env)[0] for _ in range(SETUP_PROBES)]

    work = setup(args.workload, args.seed)
    import scatmap
    if not Path(scatmap.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: scatmap imported from {scatmap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    TMP.mkdir(exist_ok=True)
    try:
        plain, traced_ops, round_times = measure(work, args.seconds, tracer, speed)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    rounds = len(round_times)

    ops = plain + traced_ops
    failed = [op for op in ops if op.problems or op.known_fault]
    correct = not any(op.problems for op in ops)

    if args.trace:
        metrics = layer_metrics(work, plain, traced_ops, tracer, rounds, env)
        units = PER_LAYER
    else:
        scale = speed.factor() if work.IN_PROCESS else 1.0
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s": statistics.median(op.seconds for op in plain) * scale,
            "round_s": statistics.median(round_times) * scale,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} round(s), attempted {len(ops)}, failed {len(failed)}")
    for op in failed:
        why = [f"{op.known_fault} grid cells hold a non-primary crossing"] if op.known_fault else []
        print(f"  failed: {op.name}: " + "; ".join(why + op.problems[:5]))
    if isinstance(work, Portrait):
        print(f"  grid cells checked per round: "
              f"{sum(len(rows) for rows in work.rows.values()) * GRID}; mismatching: "
              f"{sum(op.known_fault for op in plain) // rounds}")
    if not args.trace and work.IN_PROCESS:
        print(f"  op_s and round_s are wall time x speed factor {speed.factor():.4f} "
              f"(from {len(speed.samples)} samples)")
    for key, val in metrics.items():
        print(f"  {key:28s} {val:14.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
