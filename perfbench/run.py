"""epinmt benchmark: one workload, one workload seed, one measured run.

    python3 perfbench/run.py --workload episodic --seed 0 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With --trace 0 the run times several set-ups, each with a fresh-process
import of epinmt.cli (set-up time is the median import plus the median
set-up), does one untimed warm-up rep, then repeats the workload's fixed
work until --seconds have passed and reports medians. The first set-up
comes before the reps, the others are spread between them. With --trace 1
it does the same untimed reps, then two more reps with spans recorded
around every public function of the package, and reports the per-layer
metrics instead.

Standard output ends with one JSON line {correct, attempted, failed, metrics}.
The line before it, prefixed ``perfbench-report``, holds everything else:
every metric of the workload with its unit, the checks, the environment.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
TRACED_REPS = 2
IMPORT_SAMPLES = 3

# Every end-to-end metric with its unit. GATED are the ones the final line
# carries: they apply to every workload and never read 0.
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
    "train_tok_per_s": "tok/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
    "step_samples": "count", "final_loss": "nats/tok",
    "decode_b5_sent_per_s": "sent/s", "decode_b1_sent_per_s": "sent/s", "bleu": "BLEU",
}
GATED = ("setup_s", "wall_s", "peak_rss_mb")


WORKLOADS = ("episodic", "agg", "decode", "pipeline")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment


def _blas() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # the OpenBLAS library numpy loaded, to ask it for its thread count
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                out["library"] = os.path.basename(lib)
                return out
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


def environment(load_start: float) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()[0]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "nproc": nproc,
            "cpu_model": _cpu_model(), "git_commit": _git_commit(),
            "load1_start": load_start, "load1_end": load_end,
            "load_exceeded_nproc": max(load_start, load_end) > nproc}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_once() -> float:
    """Wall time of a fresh interpreter importing epinmt.cli."""
    from workloads import child_env
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import epinmt.cli"], env=child_env(SRC),
                   check=True, timeout=120)
    return time.perf_counter() - t0


def import_seconds() -> float:
    return statistics.median(import_once() for _ in range(IMPORT_SAMPLES))


# ---------------------------------------------------------------------------
# the run


class Checks:
    """Failed operations against attempted ones, with a note per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} {what} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def run_reps(workload, inputs, seconds: float, checks: Checks, interludes=()):
    """Untimed warm-up rep (counting target tokens), then timed reps for `seconds`.

    The `interludes` run between timed reps, spread evenly over the window,
    and their time does not count towards it. The CPU speed of a shared
    machine can change every few seconds, so samples taken apart vary less
    in their median than samples taken in a row.
    """
    from workloads import counted_target_tokens
    warm, tokens = None, 0
    if workload.warmup:
        with counted_target_tokens() as counter:
            warm = workload.rep(inputs)
        tokens = counter[0]
    pending = list(interludes)
    reps, paused = [], 0.0
    start = time.perf_counter()
    while len(reps) < workload.min_reps or time.perf_counter() - start - paused < seconds:
        reps.append(workload.rep(inputs))
        due = seconds * (len(interludes) - len(pending) + 1) / (len(interludes) + 1)
        if pending and time.perf_counter() - start - paused >= due:
            t0 = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - t0
    for interlude in pending:
        interlude()
    everything = ([warm] if warm else []) + reps
    for r in everything:
        checks.ops(r.ops, r.failed, f"{workload.name} operations")
    checks.check(len({r.digest for r in everything}) == 1,
                 "repeats of one seed give identical outputs")
    checks.check(len({r.warnings for r in everything}) == 1,
                 "repeats of one seed raise the same number of warnings")
    return reps, tokens


def quality_checks(workload, inputs, metrics: dict, checks: Checks) -> dict:
    for name, (lo, hi) in workload.quality.items():
        v = metrics[name]
        checks.check(lo <= v <= hi, f"{name}={v:.4f} within [{lo}, {hi}]")
    if "final_loss" not in metrics:
        return {}
    # a model that did no updates keeps the loss of the model it started from
    start = workload.start_loss(inputs)
    checks.check(metrics["final_loss"] < start,
                 f"final_loss={metrics['final_loss']:.4f} below the starting model's {start:.4f}")
    return {"start_loss": start}


def untraced(workload, seed, seconds, checks):
    import_s, setup_s = [], []

    def set_up():
        """One fresh-process import and one set-up, each timed."""
        import_s.append(import_once())
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    # the first set-up makes the inputs, the others are timed between reps
    inputs = set_up()
    reps, tokens = run_reps(workload, inputs, seconds, checks,
                            [set_up] * (SETUP_REPEATS - 1))
    m = {"setup_s": statistics.median(import_s) + statistics.median(setup_s),
         "wall_s": statistics.median(r.wall_s for r in reps),
         "peak_rss_mb": peak_rss_mb(workload.uses_children)}
    m.update(workload.metrics(inputs, reps, tokens))
    detail = quality_checks(workload, inputs, m, checks)
    detail.update({"import_samples_s": import_s, "setup_samples_s": setup_s,
                   "reps": len(reps), "rep_wall_s": [r.wall_s for r in reps],
                   "warnings_per_rep": reps[0].warnings,
                   "last_rep": {k: v for k, v in reps[-1].detail.items() if k != "hyps"}})
    return m, detail


def traced(workload, seed, seconds, checks, spans_path):
    from tracer import (CLI_COMMANDS, EXACT, PER_LAYER, Tracer, call_counts, stage_times,
                        work_metrics)
    tracer = Tracer()
    if workload.uses_children:
        inputs = workload.setup(seed)
    else:
        tracer.install()
        tracer.run_id = "setup"
        try:
            inputs = workload.setup(seed)
        finally:
            tracer.uninstall()
    reps, _ = run_reps(workload, inputs, seconds, checks)
    base_wall = statistics.median(r.wall_s for r in reps)

    labels = [f"work{i + 1}" for i in range(TRACED_REPS)]
    traced_reps = []
    for label in labels:
        tracer.run_id = label
        if workload.uses_children:
            workload.tracer = tracer
            traced_reps.append(workload.rep(inputs))
            workload.tracer = None
        else:
            tracer.install()
            try:
                traced_reps.append(workload.rep(inputs))
            finally:
                tracer.uninstall()
    for r in traced_reps:
        checks.ops(r.ops, r.failed, f"traced {workload.name} operations")
    checks.check(all(r.digest == reps[0].digest for r in traced_reps),
                 "traced reps give the same outputs as untraced ones")

    views = [tracer.view([label]) for label in labels]
    per_rep = [work_metrics(v) for v in views]
    counts = [call_counts(v) for v in views]
    exact = [{k: p[k] for k in EXACT} for p in per_rep]
    checks.check(all(c == counts[0] for c in counts) and all(e == exact[0] for e in exact)
                 and len({r.warnings for r in traced_reps}) == 1,
                 "exact counts repeat between traced reps")

    m = dict(per_rep[-1])
    m.update(stage_times(tracer.view(["setup", labels[-1]])))
    traced_wall = statistics.median(r.wall_s for r in traced_reps)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - base_wall
    m["run.warnings"] = traced_reps[-1].warnings
    m["cli.import_s"] = import_seconds() if workload.uses_children else 0.0
    for cmd in CLI_COMMANDS:
        key = f"cli.{cmd.replace('-', '_')}.wall_s"
        m[key] = (statistics.median(r.detail["step_s"][cmd] for r in reps)
                  if workload.uses_children else 0.0)
    tracer.dump(spans_path)
    detail = {"untraced_reps": len(reps), "rep_wall_s": [r.wall_s for r in reps],
              "traced_wall_s": [r.wall_s for r in traced_reps], "spans": len(tracer.name),
              "calls": counts[-1]}
    return {k: m[k] for k in PER_LAYER}, detail


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "epinmt" / "__init__.py").is_file():
        print(f"perfbench: no epinmt package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    # One BLAS thread, inherited by the CLI subprocesses: with two, agg followed
    # the load other tenants put on the box's second core (ROADMAP item 3 pins
    # its workers the same way). Set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import epinmt
    import epinmt.cli  # noqa: F401  (every module, so that the tracer finds them all)
    if Path(epinmt.__file__).resolve().parent != (SRC / "epinmt").resolve():
        print(f"perfbench: imported epinmt from {epinmt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from tracer import PER_LAYER
    from workloads import make
    OUT.mkdir(exist_ok=True)
    workload = make(args.workload, SRC, OUT)
    checks = Checks()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail = traced(workload, args.seed, args.seconds, checks,
                                 OUT / f"spans-{stem}.json.gz")
        units = PER_LAYER
        final = metrics
    else:
        metrics, detail = untraced(workload, args.seed, args.seconds, checks)
        metrics["error_rate"] = checks.failed / checks.attempted
        units = UNITS
        final = {k: metrics[k] for k in GATED}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": checks.failed == 0,
              "attempted": checks.attempted, "failed": checks.failed,
              "failures": checks.notes,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "detail": detail, "environment": environment(load_start)}
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in final.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
