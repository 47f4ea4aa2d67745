"""Run one census benchmark workload and print its metrics.

    python3 bench/run.py --workload ria_tile --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds ``src/raftcensus``. A run
sets up its workload three times (the median is ``setup_s``), performs
one untimed warm-up operation, then repeats the census operation, one
at a time, until ``--seconds`` have passed. Every operation's output is
checked. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics, and writes the spans to
``.bench_trace/``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS threads before numpy loads; the census itself is single-threaded
# while RAFT_CENSUS_THREADS stays unset, its default.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ.pop("RAFT_CENSUS_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if (SRC / "raftcensus" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import workloads
else:  # not beside a checkout's package; main() refuses to run
    workloads = None

SETUP_REPEATS = 3

END_TO_END = {
    "census_s": "s",
    "mpix_per_s": "Mpix/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but gated through "correct" and
# "failed" instead: on the current code they read 0.
QUALITY = {"tfa_pct": "%", "tfr_pct": "%", "fail_rate": "ratio"}

TIMED_LAYERS = (
    "bandstack.load", "bandstack.read_pgm16", "bandstack.resample",
    "waterdetect.mlp_mask", "waterdetect.ndwi_mask", "waterdetect.clean",
    "pipeline.platform_mask", "morphology.platform_close",
    "blobs.label", "blobs.features", "blobs.filter",
    "evaluation.eval", "pipeline.export", "cli.census", "cli.eval",
)
SETUP_LAYERS = ("mlp.train", "datasets.synth")
COUNTS = {
    "bandstack.bytes_read": "bytes",
    "waterdetect.water_px_raw": "count",
    "waterdetect.water_px_clean": "count",
    "pipeline.flagged_px": "count",
    "blobs.labeled": "count",
    "blobs.featured": "count",
    "blobs.accepted": "count",
    "blobs.rejected.area": "count",
    "blobs.rejected.equivalent_diameter": "count",
    "blobs.rejected.euler": "count",
    "blobs.rejected.solidity": "count",
    "evaluation.detections": "count",
    "evaluation.truth": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in TIMED_LAYERS + SETUP_LAYERS}
    units.update(COUNTS)
    units.update({
        "pipeline.flag_ratio": "ratio",
        "blobs.accept_ratio": "ratio",
        "mlp.train_epochs": "count",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
    })
    return units


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
        "RAFT_CENSUS_THREADS": "unset",
        "setup_repeats": SETUP_REPEATS,
        "warmup_ops": 1,
        "gc_collect_before_each_op": True,
        "cli_stdout": "suppressed",
    }


class Run:
    """One benchmark run: set-up, warm-up, timed loop, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference = None  # Outcome of the first successful operation
        self.times: list[float] = []  # untraced, timed operations
        self.traced: list[tuple[float, object]] = []  # (wall, Tracer)
        self.setups: list[tuple[float, object]] = []
        self.log: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.log.append(f"FAIL {what}")

    def check(self, outcome, label: str) -> bool:
        problems = []
        if outcome.count != outcome.records:
            problems.append(f"count {outcome.count} != {outcome.records} records")
        if self.reference is None:
            self.reference = outcome
        else:
            for name, data in outcome.outputs.items():
                if data != self.reference.outputs.get(name):
                    problems.append(f"{name} differs from the first operation")
        if self.w.gated and (outcome.tfr_pct > workloads.MAX_TFR_PCT
                             or outcome.tfa_pct > workloads.MAX_TFA_PCT):
            problems.append(f"TFA {outcome.tfa_pct:.2f}% / TFR {outcome.tfr_pct:.2f}% "
                            f"beyond {workloads.MAX_TFA_PCT}% / {workloads.MAX_TFR_PCT}%")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return not problems

    def op(self, label: str, tracer=None) -> float | None:
        """Run one operation and check it; return its wall time, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            result = self.scene.run() if tracer is None else self.scene.run_traced(tracer)
            wall = time.perf_counter() - start
            outcome = self.scene.outcome(result)
        except Exception:
            self.fail(f"{label}: raised\n{traceback.format_exc()}")
            return None
        if tracer is not None:
            c = tracer.counts
            rejected = sum(c.get(f"blobs.rejected.{r}", 0) for r in workloads.REJECT_ORDER)
            if c["blobs.labeled"] != c["blobs.accepted"] + rejected:
                self.fail(f"{label}: {c['blobs.labeled']} labeled blobs != "
                          f"{c['blobs.accepted']} accepted + {rejected} rejected")
                return None
        return wall if self.check(outcome, label) else None

    def execute(self) -> None:
        for _ in range(SETUP_REPEATS):
            tracer = workloads.Tracer()
            start = time.perf_counter()
            self.scene = self.w.setup(self.seed, self.workdir, tracer)
            self.setups.append((time.perf_counter() - start, tracer))
        self.op("warm-up")
        deadline = time.perf_counter() + self.seconds
        while True:
            wall = self.op(f"op {self.attempted}")
            if wall is not None:
                self.times.append(wall)
            if self.trace:
                tracer = workloads.Tracer()
                wall = self.op(f"traced op {self.attempted}", tracer)
                if wall is not None:
                    self.traced.append((wall, tracer))
            if time.perf_counter() >= deadline:
                break

    def end_to_end(self) -> dict[str, float]:
        ref = self.reference
        return {
            "census_s": statistics.median(self.times),
            "mpix_per_s": len(self.times) * self.w.mpix / sum(self.times),
            "setup_s": statistics.median(t for t, _ in self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tfa_pct": ref.tfa_pct if ref else float("nan"),
            "tfr_pct": ref.tfr_pct if ref else float("nan"),
            "fail_rate": self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        def med(values):
            return statistics.median(values) if values else 0.0

        ops = [(wall, tr, tr.self_times()) for wall, tr in self.traced]
        out = {f"{name}_s": med([own.get(name, 0.0) for _, _, own in ops]) for name in TIMED_LAYERS}
        setups = [tr.self_times() for _, tr in self.setups]
        for name in SETUP_LAYERS:
            out[f"{name}_s"] = med([own.get(name, 0.0) for own in setups])
        out["mlp.train_epochs"] = med([tr.counts.get("mlp.train_epochs", 0) for _, tr in self.setups])
        for name in COUNTS:
            out[name] = med([tr.counts.get(name, 0) for _, tr, _ in ops])
        clean = out["waterdetect.water_px_clean"]
        out["pipeline.flag_ratio"] = out["pipeline.flagged_px"] / clean if clean else 0.0
        labeled = out["blobs.labeled"]
        out["blobs.accept_ratio"] = out["blobs.accepted"] / labeled if labeled else 0.0
        out["trace.overhead_s"] = med([wall for wall, _, _ in ops]) - med(self.times)
        out["trace.uncovered_s"] = med([wall - tr.covered() for wall, tr, _ in ops])
        return out

    def write_trace(self) -> Path:
        out = ROOT / ".bench_trace" / f"{self.w.name}-seed{self.seed}.json"
        out.parent.mkdir(exist_ok=True)
        payload = {
            "workload": self.w.name,
            "seed": self.seed,
            "setups": [dict(tr.to_json(tr.spans[0][1]), wall=t) for t, tr in self.setups],
            "ops": [dict(tr.to_json(tr.spans[0][1]), wall=t) for t, tr in self.traced],
        }
        out.write_text(json.dumps(payload, indent=1) + "\n")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if workloads is None:
        print(f"error: no raftcensus package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(w, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return report(run)


def report(run: Run) -> int:
    print(f"workload {run.w.name}: {run.w.size}x{run.w.size}, {run.w.rafts} rafts, "
          f"noise {run.w.noise_sigma}, water {run.w.water}, seed {run.seed}")
    print("settings " + json.dumps(machine(), sort_keys=True))
    for line in run.log:
        print(line, file=sys.stderr)
    measured = bool(run.times) and (not run.trace or bool(run.traced))
    correct = run.failed == 0 and measured
    metrics = {}
    if measured:
        e2e = run.end_to_end()
        units = dict(END_TO_END, **QUALITY)
        print(f"census_s is the median of {len(run.times)} timed operations: "
              + " ".join(f"{t:.3f}" for t in run.times))
        print(f"setup_s is the median of {len(run.setups)} set-ups: "
              + " ".join(f"{t:.3f}" for t, _ in run.setups))
        for name, unit in units.items():
            print(f"  {name:<12} {e2e[name]:>14.6f} {unit}")
        if run.trace:
            layers = run.per_layer()
            op_s = statistics.median(wall for wall, _ in run.traced)
            print(f"per-layer values are medians of {len(run.traced)} traced operations "
                  f"(median {op_s:.4f} s); spans in {run.write_trace().relative_to(ROOT)}")
            for name, unit in per_layer_units().items():
                timed = name.endswith("_s") and name[:-2] in TIMED_LAYERS
                share = f"  {100 * layers[name] / op_s:5.1f}%" if timed else ""
                print(f"  {name:<36} {layers[name]:>16.6f} {unit}{share}")
            metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer_units().items()}
        else:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
