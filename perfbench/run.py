"""viewbench benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload formulations --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports viewbench from ``src``.  Every
repetition runs in a fresh worker process with one BLAS thread.

``--trace 0`` times whole repetitions for about ``--seconds`` (at least one)
and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
makes two untraced repetitions around one span pass, then two count passes,
and reports the per-layer metrics.  Each repetition's output digest is checked
against ``digests.json`` when it is pinned there for this machine's
fingerprint and this seed, and otherwise against the other repetitions.
The last line of standard output is the result as JSON; the fingerprint,
digests and metrics are also written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
BLAS_THREADS = 1
SETUP_WORKERS = 5
# every run must end within 180 s; keep a margin for reporting
DEADLINE_S = 170.0

# Times are scaled to a reference speed by the probe loop of ``worker.py``:
# a time is multiplied by (PROBE_REF_S / probe time) ** PROBE_EXPONENT.  The
# probe time is the mean of the samples a worker took while its workload
# ran, or, for set-up and for a repetition that ran work in parallel, the
# mean of the PROBE_LOOPS-loop bursts that this process times before and
# after every worker it runs alone.  PROBE_REF_S is about the loop's time on
# a shared 2-vCPU Intel Xeon with Python 3.11.7.  There, log workload time
# followed log probe time with slope 1.4 to 1.6, and over five seeds the
# spread of wall_s was 0.02 to 0.05 with exponent 1.5 against 0.10 to 0.13
# with exponent 1.
PROBE_LOOPS = 300
PROBE_REF_S = 0.75e-3
PROBE_EXPONENT = 1.5


def probe_burst_s() -> float:
    return statistics.fmean(worker.probe_loop() for _ in range(PROBE_LOOPS))


def to_reference(probe_s: float) -> float:
    """Factor that turns seconds measured at this probe time into reference
    seconds."""
    return (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def fingerprint_key(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


class Workers:
    """Starts worker processes for one workload and seed, and collects them."""

    def __init__(self, root: Path, workload: str, seed: int, out: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.started = 0
        self.live: set[subprocess.Popen] = set()
        self.last_probe_s = probe_burst_s()

    def start(self, mode: str, spans: Path | None = None):
        self.started += 1
        result = self.out / f"worker-{os.getpid()}-{self.started}.json"
        argv = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                mode, str(result), str(self.out / "tmp")] + ([str(spans)] if spans else [])
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.live.add(proc)
        return proc, result, mode

    def collect(self, started) -> dict:
        proc, result, mode = started
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"mode": mode, "error": "timed out"}
        finally:
            self.live.discard(proc)
        try:
            rec = json.loads(result.read_text())
            result.unlink()
        except (OSError, json.JSONDecodeError):
            rec = {"error": f"worker exited {proc.returncode}: {err.decode()[-2000:]}"}
        rec["mode"] = mode
        return rec

    def run(self, mode: str, spans: Path | None = None) -> dict:
        """Run one worker alone, bracketed by probe bursts.  Its record gets
        the factors that turn its seconds into reference seconds: ``scale``
        for the whole run, ``setup_scale`` and ``train_scale``."""
        before = self.last_probe_s
        rec = self.collect(self.start(mode, spans))
        self.last_probe_s = probe_burst_s()
        rec["burst_s"] = [before, self.last_probe_s]
        rec["setup_scale"] = to_reference(statistics.fmean(rec["burst_s"]))
        trusted = "probe_s" in rec and not rec["parallel"]
        rec["scale"] = to_reference(rec["probe_s"]) if trusted else rec["setup_scale"]
        rec["train_scale"] = (to_reference(rec["train_probe_s"])
                              if trusted and "train_probe_s" in rec else rec["scale"])
        return rec

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def close(self) -> None:
        """Stop any worker still running and wait for it."""
        for proc in self.live:
            proc.kill()
            proc.communicate()
        self.live.clear()


def check(recs: list[dict], workload: str, seed: int) -> tuple[int, list[str], dict | None]:
    """Failed operations, notes, and the fingerprint.  A repetition fails on
    an error, an implausible output, or a digest that differs from the
    pinned one (or, unpinned, from the first repetition's)."""
    done = [r for r in recs if "error" not in r]
    failed = len(recs) - len(done)
    notes = [f"{r['mode']} worker failed: {r['error']}" for r in recs if "error" in r]
    runs = [r for r in done if "digest" in r]
    if not runs:
        return failed, notes, None
    fp = runs[0]["fingerprint"]
    key = fingerprint_key(fp)
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = pins.get(key, {}).get("digests", {}).get(workload, {}).get(str(seed))
    if expected is None:
        notes.append(f"digest: unpinned for fingerprint {key} and seed {seed}; "
                     f"checking that {len(runs)} repetitions agree")
        expected = runs[0]["digest"]
    else:
        notes.append(f"digest: pinned for fingerprint {key} and seed {seed}")
    for r in runs:
        bad = list(r["problems"])
        if r["digest"] != expected:
            bad.append(f"digest {r['digest'][:16]} != {expected[:16]}")
        if r["fingerprint"] != fp:
            bad.append("fingerprint changed between repetitions")
        if bad:
            failed += 1
            notes.append(f"{r['mode']} repetition failed: {'; '.join(bad)}")
    return failed, notes, fp


def end_to_end(workers: Workers, seconds: int) -> tuple[list[dict], dict]:
    recs = [workers.run("setup") for _ in range(SETUP_WORKERS)]
    t0 = time.monotonic()
    reps = []
    while True:
        rec = workers.run("plain")
        recs.append(rec)
        if "error" in rec:
            break
        reps.append(rec)
        spent = time.monotonic() - t0
        per_rep = spent / len(reps)
        if spent + per_rep > seconds or per_rep > workers.left():
            break
    if not reps:
        return recs, {}
    setups = [r for r in recs if "setup_s" in r]
    return recs, {
        "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setups),
        "train_samples_per_s": statistics.median(
            r["train_rows"] / (r["train_s"] * r["train_scale"]) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in reps),
        "unscaled": {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "train_samples_per_s": statistics.median(r["train_rows"] / r["train_s"] for r in reps),
            "scale": statistics.median(r["scale"] for r in reps),
            "parallel_repetitions": sum(r.get("parallel", False) for r in reps),
        },
    }


def layer_value(name: str, spans: dict, scale: float, counts: dict, by_site: dict,
                overhead: float):
    """One per-layer metric; span times are scaled by ``scale``."""
    head, _, last = name.rpartition(".")
    if name == "trace.overhead_frac":
        return overhead
    if name == "trace.coverage_frac":
        return spans["coverage_frac"]
    if name == "synthetic.generate.iou_per_proposal":
        proposals = counts.get("synthetic.generate.proposals", 0)
        return by_site.get("metrics.iou.calls@synthetic", 0) / proposals if proposals else 0.0
    if head == "experiments.arm_train_s":
        return spans["arm_train_s"].get(last, 0.0) * scale
    if head in tracing.SPAN_NAMES and last == "self_s":
        return spans["self_s"].get(head, 0.0) * scale
    if head in tracing.SPAN_NAMES and last == "calls":
        return spans["calls"].get(head, 0)
    if head.startswith("cli.") and last == "s":
        return spans["total_s"].get(head, 0.0) * scale
    if name in tracing.COUNTER_NAMES:
        return counts.get(name, 0)
    raise KeyError(f"no per-layer metric named {name!r}")


def per_layer(workers: Workers, names: list[str], spans_path: Path) -> tuple[list[dict], dict]:
    # untraced, traced, untraced: the overhead estimate cancels a linear
    # drift in machine speed
    plain = [workers.run("plain")]
    traced = workers.run("spans", spans_path)
    plain.append(workers.run("plain"))
    # counts do not depend on timing, so the two count passes share the cores
    started = [workers.start("counts") for _ in range(2)]
    counted = [workers.collect(s) for s in started]
    recs = plain + [traced] + counted
    if any("error" in r for r in recs):
        return recs, {}
    if counted[0]["counts_by_site"] != counted[1]["counts_by_site"]:
        counted[1]["problems"].append("count passes disagree")
    overhead = (traced["wall_s"] * traced["scale"]
                / statistics.fmean(r["wall_s"] * r["scale"] for r in plain) - 1.0)
    return recs, {
        name: layer_value(name, traced["spans"], traced["scale"], counted[0]["counts"],
                          counted[0]["counts_by_site"], overhead)
        for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "viewbench" / "__init__.py").is_file():
        print(f"error: no viewbench source under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    out = root / ".perfbench"
    for sub in ("tmp", "results", "traces"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    workers = Workers(root, args.workload, args.seed, out)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        if args.trace:
            recs, values = per_layer(workers, [m["name"] for m in metric_spec],
                                     out / "traces" / f"{tag}.jsonl")
        else:
            recs, values = end_to_end(workers, args.seconds)
    finally:
        workers.close()
    failed, notes, fp = check(recs, args.workload, args.seed)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS}")
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    for note in notes:
        print(note)
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    reps = sum(r["mode"] == "plain" for r in recs)
    for m in metric_spec:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if "unscaled" in values:
        raw = values["unscaled"]
        print(f"unscaled: wall_s = {raw['wall_s']:.6g} s, setup_s = {raw['setup_s']:.6g} s, "
              f"train_samples_per_s = {raw['train_samples_per_s']:.6g} 1/s; "
              f"speed scale {raw['scale']:.4g}; {raw['parallel_repetitions']} repetitions "
              "ran work in parallel and were scaled by the probe bursts between workers")
    print(f"failed_frac = {failed / len(recs):.6g} ({failed} of {len(recs)} operations; "
          f"{reps} untraced repetitions)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    result = {"correct": failed == 0, "attempted": len(recs), "failed": failed, "metrics": metrics}
    (out / "results" / f"{tag}.json").write_text(json.dumps({
        "fingerprint": fp,
        "fingerprint_key": fingerprint_key(fp) if fp else None,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digests": sorted({r["digest"] for r in recs if "digest" in r}),
        "notes": notes,
        "unscaled": values.get("unscaled"),
        "repetitions": [{k: v for k, v in r.items() if not isinstance(v, dict)}
                        for r in recs],
        "result": result,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
