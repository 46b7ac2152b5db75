"""Smoke check: every workload in both modes at the smallest run length.

    python3 perfbench/smoke.py [workload ...]

Runs ``run.py --seconds 1`` per workload with --trace 0 and --trace 1 and
checks that the final line has the contract's keys and exactly the metrics
BENCHMARK.json names, with their units; that the report line has every
end-to-end metric that applies to the workload; that the run is correct;
and that decode does no backward pass. Last, it runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result. Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import GATED, UNITS, WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

TRAINING = ("train_tok_per_s", "step_ms_p50", "step_ms_p90", "step_samples", "final_loss")
APPLIES = {
    "episodic": TRAINING,
    "agg": TRAINING,
    "decode": ("decode_b5_sent_per_s", "decode_b1_sent_per_s", "bleu"),
    "pipeline": ("bleu",),
}
COMMON = GATED + ("error_rate",)


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=600)


def check(workload: str, trace: int, bench: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("perfbench-report "))
    errors = []
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"final line keys {sorted(final)}")
    if not final["correct"] or final["attempted"] < 1:
        errors.append(f"not correct: {report['failures']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    if got != want:
        errors.append(f"final metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    units = PER_LAYER if trace else UNITS
    names = set(PER_LAYER) if trace else set(COMMON + APPLIES[workload])
    for name in names:
        entry = report["metrics"].get(name)
        if entry is None or entry["unit"] != units[name]:
            errors.append(f"report lacks {name} [{units[name]}]")
    if trace and workload == "decode" and report["metrics"]["tensor.backward.calls"]["value"]:
        errors.append("decode ran a backward pass")
    return errors


def check_stripped() -> list[str]:
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = ROOT / ".perfbench_out" / "stripped"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "episodic", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"stripped checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in argv or WORKLOADS:
        for trace in (0, 1):
            errors = check(workload, trace, bench)
            failed |= bool(errors)
            print(f"{workload} trace={trace}: {'ok' if not errors else errors}", flush=True)
    errors = check_stripped()
    failed |= bool(errors)
    print(f"stripped checkout: {'ok' if not errors else errors}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
