"""refbilliard benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload section-wavy --seed 1 --seconds 20 \\
        --trace 0

The run generates the workload's inputs from ``--seed``, repeats the
workload's task while at least half of another task fits in ``--seconds``
(at least once), checks the outputs outside the timed region, writes a
manifest and, with ``--trace 1``, the spans, under ``perfbench/out/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each a
median over the run's tasks (``setup_s`` over fresh processes).  Their
times are rescaled to a fixed machine speed, which a calibration block
measures while each task runs (see :class:`SpeedProbe`), and which fresh
processes that import only the dependencies measure for set-up (see
:func:`setup_times`).
``--trace 1`` runs one untraced task, then traced tasks, and reports the
per-layer metrics per task: calls and self time of each wrapped function,
the counters, and the tracing overhead against the untraced task.
``--smoke`` shrinks every workload; only the smoke test uses it.

The run exits with code 2, printing no result, when the checkout holds no
refbilliard sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# calibration block time that defines the reference machine speed
CAL_NOMINAL_S = 1e-3
CAL_PERIOD_S = 0.05
CAL_BRACKET = 10
CAL_X = np.linspace(0.0, 2.0 * math.pi, 257)
CAL_CELLS = [None] * 400
# dependency import time that defines the reference machine speed for set-up
SETUP_NOMINAL_S = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    return parser.parse_args(argv)


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def probe_seconds(*args: str, imported: str) -> float:
    """One run of ``setup_probe.py args`` in a fresh process: its time."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            not lines[0].startswith(imported):
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(lines[1])


def setup_times(config_path: str, repeats: int):
    """Times of ``repeats`` cold set-ups, raw and rescaled, and the times of
    the dependency imports that rescale them.

    A set-up is mostly importing numpy and scipy.optimize, and a busy
    machine slows that less than the calibration block.  Each set-up is
    therefore rescaled by fresh processes that import only those two, run
    just before and just after it: t * SETUP_NOMINAL_S / (their mean).  A
    change to how refbilliard imports or loads a config moves the set-up
    and leaves the dependency imports alone.
    """
    deps = [probe_seconds("--deps", imported="deps")]
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(probe_seconds(SRC, config_path, imported=SRC))
        deps.append(probe_seconds("--deps", imported="deps"))
        scaled.append(raw[-1] * SETUP_NOMINAL_S / (0.5 * (deps[-2] +
                                                         deps[-1])))
    return raw, scaled, deps


class _Cell:
    __slots__ = ("x", "pair", "tag")

    def __init__(self, x, pair, tag):
        self.x = x
        self.pair = pair
        self.tag = tag


def calibration_block() -> float:
    """Time of one fixed block of work, in seconds.

    The block mixes the three kinds of work refbilliard's hot paths do:
    numpy on small arrays, interpreter float arithmetic, and allocating
    small objects.  A busy machine slows each kind differently, and the
    mix follows the workloads' slow-downs more closely than any one of
    them (see NOTES.md).  The block uses no refbilliard code, so a change
    to the program leaves it alone.  The garbage collector is off while it
    runs, and each object it allocates replaces one of its own, so the
    block neither moves the program's collections nor grows its heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(8):
            z = np.cos(CAL_X) + 1j * np.sin(CAL_X)
            r = np.abs(z) - (1.0 + 0.01 * np.cos(2.0 * np.angle(z)))
            np.nonzero(r > 0.0)
        acc = 0.0
        for i in range(1500):
            acc += math.sqrt(i) * math.sin(i)
        for i in range(len(CAL_CELLS)):
            CAL_CELLS[i] = _Cell(i * 0.5, (i, i + 1), {"k": i})
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times the calibration block while a task runs, to rescale the task.

    A timer signal every ``CAL_PERIOD_S`` runs :func:`calibration_block`
    between two bytecodes of the task, so the blocks sample the machine's
    speed over the same seconds as the task.  The time spent in the blocks
    is taken out of the task's time.  ``CAL_BRACKET`` blocks before and
    after the task cover tasks too short for the timer.  The task's time t
    is reported as t * CAL_NOMINAL_S / (mean block time): the time the task
    would take on a machine where the block takes CAL_NOMINAL_S.  The mean
    follows the speed changes within a task, and it leaves out the fastest
    and the slowest tenth of the blocks, such as one hit by an interrupt.
    """

    def __init__(self):
        self.blocks: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = calibration_block()
        self.blocks.append(t)
        self.spent += t

    def bracket(self) -> None:
        self.blocks += [calibration_block() for _ in range(CAL_BRACKET)]

    def run(self, fn, *args):
        """``fn(*args)``, its time without the blocks, and its time
        rescaled."""
        self.blocks, self.spent = [], 0.0
        self.bracket()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent
        self.bracket()
        blocks = sorted(self.blocks)
        cut = len(blocks) // 10
        mean = statistics.fmean(blocks[cut:len(blocks) - cut])
        return result, wall, wall * CAL_NOMINAL_S / mean


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=30,
            check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(args, wl, walls, scaled, setup, result) -> dict:
    import numpy
    import scipy

    import refbilliard
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "git_commit": git_commit(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "refbilliard": refbilliard.__version__,
        "input_size": wl.sizes, "task_wall_s": walls,
        "task_rescaled_s": scaled, "setup_s": setup[0],
        "setup_rescaled_s": setup[1], "deps_import_s": setup[2], "result": result,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, tasks: int, untraced_wall, traced_walls) -> dict:
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = metric(tracer.calls.get(name, 0) / tasks,
                                      "count")
        out[f"{name}.self_s"] = metric(tracer.self_s.get(name, 0.0) / tasks,
                                       "s")
    for name in tracing.COUNTER_NAMES:
        out[name] = metric(tracer.counts.get(name, 0) / tasks, "count")
    # useful outcomes per attempt; the base is util.first_crossing.calls
    tries = tracer.calls.get("util.first_crossing", 0)
    misses = tracer.counts.get("util.first_crossing.miss", 0)
    out["util.crossing_hit_ratio"] = metric(
        (tries - misses) / tries if tries else 0.0, "ratio")
    wall = statistics.median(traced_walls)
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.overhead_share"] = metric(wall / untraced_wall - 1.0, "ratio")
    out["trace.spans"] = metric(len(tracer.span_id) / tasks, "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "refbilliard", "__init__.py")):
        print("perfbench: no refbilliard sources under src/ of this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from refbilliard import returnmap

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = fresh(os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.smoke, fresh(os.path.join(workdir, "inputs")))

    speed = None if args.trace else SpeedProbe()
    setup = ([], [], []) if args.trace else setup_times(
        wl.setup_config, 1 if args.smoke else SETUP_REPEATS)

    map_calls = [0]
    if wl.counts_map_calls and not args.trace:
        original = returnmap.return_map

        def counted(*a, **kw):
            map_calls[0] += 1
            return original(*a, **kw)
        tracing.rebind(original, counted)

    tally = workloads.Tally()
    tracer = uninstall = None
    walls, scaled, rates = [], [], []
    first = None
    begin = perf_counter()
    while True:
        k = len(walls)
        out = fresh(os.path.join(workdir, "task-first" if k == 0
                                 else "task-last"))
        if args.trace and k == 1:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        task = wl.run if tracer is None else tracer.wrap(wl.run, "task")
        calls0 = map_calls[0]
        if speed is None:
            t0 = perf_counter()
            raw = task(out)
            wall = perf_counter() - t0
        else:
            raw, wall, rescaled = speed.run(task, out)
            scaled.append(rescaled)
        returns, digest = wl.account(raw, out, tally)
        if returns is None:
            returns = map_calls[0] - calls0
        walls.append(wall)
        rates.append(returns / (wall if speed is None else rescaled))
        if first is None:
            first = raw, out, digest
        else:
            tally.op(digest == first[2],
                     f"task {k} outputs differ from the first task's")
        # start another task only if at least half of it fits in the time
        left = args.seconds - (perf_counter() - begin)
        if left < 0.5 * statistics.median(walls) and \
                (not args.trace or len(walls) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if uninstall is not None:
        uninstall()
    wl.check(first[0], first[1], tally)
    for label in tally.failures:
        print(f"perfbench: FAILED {label}", file=sys.stderr)

    if args.trace:
        tracer.save(os.path.join(workdir, "spans.npz"))
        metrics = layer_metrics(tracer, len(walls) - 1, walls[0], walls[1:])
        with open(os.path.join(workdir, "layers.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup[1]), "s"),
            "wall_s": metric(statistics.median(scaled), "s"),
            "returns_per_s": metric(statistics.median(rates), "1/s"),
            "ok_share": metric(1.0 - tally.failed / tally.attempted, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest(args, wl, walls, scaled, setup, result), fh, indent=1)
    print(f"perfbench: {len(walls)} task(s); manifest in "
          f"{os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
