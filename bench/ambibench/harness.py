"""One benchmark run: set up, repeat whole rounds for the given seconds,
check every round, then report.

With ``trace=False`` the run installs no wrapper and reports the end-to-end
metrics. With ``trace=True`` every round runs twice on the same inputs, first
with the wrappers inactive and then recording spans; the per-layer metrics
come from the recorded rounds and the difference in wall time between the
two halves is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from . import layers, workloads
from .tracer import Tracer, install


class Calibration:
    """A fixed numpy loop timed before every set-up part and every round, to
    correct set-up and round times for the speed of the machine at the time.

    On a shared host the same round can run 30% slower for a whole run. The
    loop mixes the kinds of work the workloads do (FFTs, chains of small
    matrix products, elementwise maths and a sort). Its mean time before the
    set-up parts, and before the rounds, against its time on the reference
    machine, gives the speed factor that the mean set-up part, and the mean
    round, is divided by.
    """

    NOMINAL_S = 0.0195  # median loop time on the reference machine (README)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal((24, 16384))
        self.matrix = rng.standard_normal((64, 64))
        self.values = rng.standard_normal(100000)

    def measure(self):
        t0 = perf_counter()
        for _ in range(4):
            np.fft.rfft(self.signal, axis=1)
            x = self.matrix
            for _ in range(50):
                x = np.tanh(x @ self.matrix * 0.1)
            np.exp(self.values).sum()
            np.sort(self.values)
        return perf_counter() - t0


def corrected(times, loop_times):
    """Mean of ``times`` on the reference machine: divided by how many times
    slower than there the calibration loop ran alongside them."""
    if not times:  # every round failed
        return 0.0
    return float(np.mean(times)) * Calibration.NOMINAL_S / float(np.mean(loop_times))


def blas_info():
    """BLAS vendor from numpy's build record, and the thread count the loaded
    OpenBLAS reports (None where it cannot be asked)."""
    vendor, threads = "unknown", None
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_int
                return vendor, int(getattr(handle, symbol)())
    return vendor, threads


def git_sha(root):
    """HEAD of the checkout, read from .git without starting git; None when
    the tree is not a repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    vendor, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "render_workers": workloads.RENDER_WORKERS,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
    }


def run(workload, seed, seconds, trace, scale, results_dir, root):
    """Run one workload; returns the result object the last line prints."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    label = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = results_dir / f"work-{label}-{os.getpid()}"
    failures = []
    tracer = Tracer()
    calibration = Calibration()
    t_start = perf_counter()
    attempted = failed = 0
    setup_s, round_s = [], {False: [], True: []}
    loop_s = {"setup": [], False: [], True: []}  # calibration beside each timing
    try:
        workdir.mkdir()
        wl = workloads.WORKLOADS[workload](
            seed, workloads.SIZES[scale], workdir, failures.append, tracer.span)
        if trace:
            install(tracer, wl.feature_span_s())
        for part in range(workloads.SETUP_PARTS):
            with tracer.span("bench.calibrate"):
                loop_s["setup"].append(calibration.measure())
            with tracer.span("bench.setup", part=part):
                t0 = perf_counter()
                wl.setup(part)
                setup_s.append(perf_counter() - t0)
        t_measure = perf_counter()
        r = 0
        while r == 0 or perf_counter() - t_measure < seconds:
            # a traced run makes each round twice, untraced and traced, in
            # alternating order so that neither half always runs first
            order = (False, True) if r % 2 == 0 else (True, False)
            for traced in (order if trace else (False,)):
                planned = wl.planned(r)
                attempted += planned
                with tracer.span("bench.calibrate"):
                    loop = calibration.measure()
                tracer.active = traced
                wl.recording = not traced
                outputs = None
                with tracer.span("bench.round", round=r, traced=traced):
                    t0 = perf_counter()
                    try:
                        outputs = wl.round(r, "t" if traced else "")
                        round_s[traced].append(perf_counter() - t0)
                        loop_s[traced].append(loop)
                    except Exception:  # a program fault fails the round's operations
                        traceback.print_exc()
                        failed += planned
                tracer.active = False
                if outputs is not None:
                    with tracer.span("bench.check", round=r):
                        wl.check(r, outputs)
            r += 1
        with tracer.span("bench.check", round=None):
            wl.finish()
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    wall = perf_counter() - t_start

    stage_metrics = wl.stage_metrics()
    if trace:
        both = round_s[True] and round_s[False]  # empty only if every round failed
        overhead = 100.0 * (sum(round_s[True]) / sum(round_s[False]) - 1.0) if both else 0.0
        metrics = layers.per_layer(tracer.spans, overhead, stage_metrics)
    else:
        metrics = {
            "setup_s": {"value": corrected(setup_s, loop_s["setup"]), "unit": "s"},
            "round_s": {"value": corrected(round_s[False], loop_s[False]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    stages = {}
    for _, parent, name, start, end, fields in tracer.spans:
        if parent is None:
            key = f"{name}.traced" if fields.get("traced") else name
            stages[key] = stages.get(key, 0.0) + end - start
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "setup_parts_s": setup_s, "rounds_s": round_s[False],
        "traced_rounds_s": round_s[True],
        "calibration_setup_s": loop_s["setup"], "calibration_rounds_s": loop_s[False],
        "wall_s": wall, "stages_s": stages,
        "unaccounted_s": wall - sum(stages.values()),
        "stage_metrics": stage_metrics, "check_stats": wl.stats,
        "check_failures": failures,
        "environment": environment(root), "result": result,
    }
    if trace:
        record["self_ms_by_span"] = layers.self_ms_by_name(tracer.spans)
        tracer.write_jsonl(results_dir / f"{label}.spans.jsonl")
    with open(results_dir / f"{label}.json", "w", encoding="ascii") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return result

