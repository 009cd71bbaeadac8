"""Run one repetition of one workload in this process; write the result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_JSON TMP_DIR [SPANS_JSONL]

MODE is ``setup`` (import and prepare only), ``plain`` (untraced),
``spans`` (span pass) or ``counts`` (count pass).  ``run.py`` starts the
workers with ``src`` on the path and a fixed BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

MODULES = ("angles", "losses", "metrics", "synthetic", "net", "records",
           "experiments", "gradcheck", "cli")

# The speed of a shared machine drifts by tens of percent within seconds, too
# fast for probes between repetitions to follow.  So a pure-Python loop is
# also timed every PROBE_INTERVAL_S from a timer signal while a workload
# runs.  The loop is timed in CPU time of the main thread, so waiting for the
# GIL or for a core does not count.  Of the workload's own work, only work
# that runs in parallel with the loop can slow it, so ``run.py`` does not use
# these samples for a repetition whose CPU time exceeds its wall time by more
# than PARALLEL_TOLERANCE.
PROBE_LOOP = 10000
PROBE_INTERVAL_S = 0.05
PARALLEL_TOLERANCE = 0.02


def probe_loop() -> float:
    """CPU seconds of this thread for one run of the probe loop."""
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.thread_time() - start


def _cpu_s() -> float:
    """CPU seconds of this process and of the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedProbe:
    """Times the probe loop from a timer signal while a workload runs, and
    the CPU time the workload takes meanwhile."""

    def __init__(self):
        self.samples: list[float] = []
        self.cpu_s = 0.0

    def _probe(self, *_) -> None:
        self.samples.append(probe_loop())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.cpu_s = -_cpu_s()
        return self

    def __exit__(self, *exc):
        self.cpu_s += _cpu_s()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str | None, int | None]:
    """Core name and thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return corename().decode(), int(threads())
    return None, None


def fingerprint() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "blas_threads": threads,
        "cpu": _cpu_model(),
    }


def _time_training(installer, net, speed: SpeedProbe, totals: dict,
                   train_probes: list[float]) -> None:
    """Accumulate rows (iterations x batch size) and seconds spent in
    ``net.train``, and collect the probe samples taken meanwhile."""

    def make(fn, site):
        def timed(*args, **kwargs):
            tcfg = args[2] if len(args) > 2 else kwargs["tcfg"]
            first = len(speed.samples)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals["train_s"] += time.perf_counter() - start
                totals["train_rows"] += tcfg.total_iters * tcfg.batch_size
                train_probes.extend(speed.samples[first:])

        return timed

    installer.wrap_function(net.train, make)


def run(name: str, seed: int, mode: str, tmp_root: Path, spans_path: str | None) -> dict:
    start = time.perf_counter()
    modules = {m: importlib.import_module(f"viewbench.{m}") for m in MODULES}
    job = workloads.WORKLOADS[name](seed, tmp_root)
    out = {"setup_s": time.perf_counter() - start}
    try:
        if mode != "setup":
            out.update(_measure(job, name, seed, mode, modules, spans_path))
    finally:
        job.cleanup()
    return out


def _measure(job, name: str, seed: int, mode: str, modules: dict, spans_path: str | None) -> dict:
    out = {"fingerprint": fingerprint()}
    installer = tracing.Installer()
    span = workloads.no_span
    totals = {"train_s": 0.0, "train_rows": 0}
    train_probes: list[float] = []
    tracer = counter = None
    speed = SpeedProbe()
    if mode == "plain":
        _time_training(installer, modules["net"], speed, totals, train_probes)
    elif mode == "spans":
        tracer = tracing.Tracer(f"{name}-{seed}")
        tracer.install(installer, modules)
        span = tracer.span
    elif mode == "counts":
        counter = tracing.Counter()
        counter.install(installer, modules)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    try:
        # counts do not depend on speed, and the probe would only slow them
        with tracer.span("workload") if tracer else contextlib.nullcontext(), \
                speed if counter is None else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = job.run(span)
            out["wall_s"] = time.perf_counter() - t0
        # before the digest, which reads every artifact into memory
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        installer.restore()
    out["digest"], out["problems"] = job.digest(result)
    out.update(totals)
    if speed.samples:
        out["probe_s"] = statistics.fmean(speed.samples)
        out["cpu_s"] = speed.cpu_s
        out["parallel"] = speed.cpu_s > out["wall_s"] * (1.0 + PARALLEL_TOLERANCE)
    if train_probes:
        out["train_probe_s"] = statistics.fmean(train_probes)
    if tracer is not None:
        out["spans"] = tracing.span_summary(tracer.spans, root=0)
        if spans_path:
            tracer.write(spans_path)
    if counter is not None:
        out["counts"] = counter.totals()
        out["counts_by_site"] = counter.by_site()
    return out


def main(argv: list[str]) -> int:
    name, seed, mode, out_path, tmp_root = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    try:
        out = run(name, int(seed), mode, Path(tmp_root), spans_path)
    except Exception:
        out = {"error": traceback.format_exc()}
    Path(out_path).write_text(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
