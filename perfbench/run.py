"""Benchmark runner: one workload, one process, single-threaded.

    python3 perfbench/run.py --workload a4_example --seed 1 --seconds 15 --trace 0

or, for every workload in turn:

    for w in a4_example a5_example measure_rank3 lattice_i62_i64; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

The library is read from `src/` beside this file's directory.  Set-up
(importing mvtk afresh, reading fixtures, building modules, tableaux and
seeded inputs) runs SETUP_MIN_REPEATS times before the first pass, and
again after each untraced pass for SETUP_SHARE of that pass's time, so the
set-ups are spread over the whole run; `setup_s` is their median.  Whole
passes of the workload run until `--seconds` have elapsed; `wall_s` is the
median pass time, checks included.  Both are in reference seconds: wall
time rescaled to a fixed host speed sampled during the run (refclock.py),
because the shared host's own speed drifts more than the bounds allow.

With `--trace 0` the last line of stdout holds the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate, and the last line holds
the per-layer metrics of the traced passes (medians), the route times
`flag_s`/`mv_s` and known-defect count of the untraced passes, and the
tracing overhead.  The line before it, starting with `meta`, records the
run's metadata (revision, Python, nproc, src_loc, pass times) and failures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import RATIONALE, WORKLOADS  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_SHARE = 0.15
ROOT = HERE.parent
SRC = ROOT / "src"


def import_mvtk():
    """Fresh import of the library: drop any loaded copy first."""
    for name in [n for n in sys.modules if n == "mvtk" or n.startswith("mvtk.")]:
        del sys.modules[name]
    mods = {short: importlib.import_module(f"mvtk.{short}")
            for short in ("preproj", "orbital", "measures", "centralizer", "roota",
                          "exactalg.groebner", "exactalg.mdeg")}
    return SimpleNamespace(**{k.split(".")[-1]: v for k, v in mods.items()},
                           fixtures=SRC / "mvtk" / "fixtures")


def timed_setup(setup, seed, times):
    """Import mvtk afresh and build the workload's inputs; append (wall, reference) seconds."""
    clock = RefClock()
    clock.start()
    mods = import_mvtk()
    state = setup(mods, seed)
    times.append(clock.stop())
    return mods, state


def more_setups(setup, seed, times, seconds):
    """Set up again for `seconds`, then put back the library the passes use."""
    loaded = {n: m for n, m in sys.modules.items() if n == "mvtk" or n.startswith("mvtk.")}
    end = time.perf_counter() + seconds
    while True:
        timed_setup(setup, seed, times)
        gc.collect()    # free that copy now, so peak memory does not grow with the set-up count
        if time.perf_counter() >= end:
            break
    for name in [n for n in sys.modules if n == "mvtk" or n.startswith("mvtk.")]:
        del sys.modules[name]
    sys.modules.update(loaded)
    gc.collect()


def one_pass(run, mods, state, gate, traced=False):
    """One pass of the workload; (wall, reference) seconds, speed samples left out.

    A traced pass samples the speed only at its ends, so no sample falls
    inside a span.
    """
    gate.clock.start(sampling=not traced)
    run(mods, state, gate)
    return gate.clock.stop()


def layer_metrics(tracer, wall, names):
    """Per-layer figures of one traced pass.

    A name `<layer>.self_s` is the layer's self time, `<key>_s` the inclusive
    time and `<key>_calls` the calls of a wrapped function, and any other
    name a count read off results.  Names outside the layers are skipped.
    """
    out = {}
    for name in names:
        layer = name.split(".")[0]
        if layer not in LAYERS:
            continue
        if name.endswith(".self_s"):
            out[name] = tracer.self_s.get(layer, 0.0)
        elif name.endswith("_s"):
            out[name] = tracer.incl.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            out[name] = tracer.calls.get(name[:-6], 0)
        else:
            out[name] = tracer.counts.get(name, 0)
    out["trace.coverage"] = tracer.top_s / wall
    return out


def check_rationale(spec):
    """rationale.json must describe the workloads and per-layer metrics of BENCHMARK.json."""
    names = sorted(w["name"] for w in spec["workloads"])
    mapped = sorted(n for entry in RATIONALE["layer_to_end_to_end"] for n in entry["metrics"])
    if names != sorted(RATIONALE["workloads"]) or names != sorted(WORKLOADS):
        raise RuntimeError("workloads differ between BENCHMARK.json, rationale.json and workloads.py")
    if mapped != sorted(m["name"] for m in spec["per_layer"]):
        raise RuntimeError("rationale.json's layer map does not list BENCHMARK.json's per_layer metrics")


def git_revision():
    """HEAD's commit id read from .git in the working directory, without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_loc():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mvtk" / "__init__.py").is_file():
        print(f"error: no mvtk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rationale(spec)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setup, run = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_MIN_REPEATS):
        mods, state = timed_setup(setup, args.seed, setup_times)

    gate = Gate(RefClock())
    plain, traced, layers, routes = [], [], [], []   # (wall, reference) s; routes per untraced pass
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                wall = one_pass(run, mods, state, gate, traced=True)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracer, wall[0], [m["name"] for m in spec["per_layer"]]))
        else:
            gate.route_s.clear()
            known = len(gate.known)
            plain.append(one_pass(run, mods, state, gate))
            routes.append({**gate.route_s, "known": len(gate.known) - known})
            if not args.trace:
                more_setups(setup, args.seed, setup_times, SETUP_SHARE * plain[-1][0])
        enough = not args.trace or len(traced) == len(plain)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    wall_s = statistics.median(ref for _, ref in plain)
    if args.trace:
        metrics = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
        for route in ("flag", "mv"):
            metrics[f"{route}_s"] = statistics.median(r.get(route, 0.0) for r in routes)
        metrics["gate.known_defect_ops"] = statistics.median(r["known"] for r in routes)
        metrics["trace.overhead_frac"] = statistics.median(ref for _, ref in traced) / wall_s - 1
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    expected = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_revision(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "src_loc": src_loc(),
        "passes_wall_ref": plain, "traced_passes_wall_ref": traced,
        "setups_wall_ref": setup_times,
        "known_defects": sorted(set(gate.known)), "failures": gate.failures[:20],
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
