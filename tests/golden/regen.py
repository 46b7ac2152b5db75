"""Rewrite the golden files that tier-1 compares against:

    criteria.json   the detail of each acceptance criterion's line (runs
                    tests/test_acceptance.py, the lab included: minutes)
    pipeline.json   every file that the pipeline chain writes on
                    pipeline_config.json, and the environment it ran in

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [criteria] [pipeline]

Without arguments it rewrites both. A change that moves a criterion value or
an artifact runs it and commits the result; the diff is its before/after
report.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))   # tests/, for helpers

import helpers  # noqa: E402


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def criteria() -> None:
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(HERE.parent / "test_acceptance.py")])
    if len(helpers.CRITERIA) != 12:
        sys.exit(f"only criteria {sorted(helpers.CRITERIA)} printed a line (pytest exit {code})")
    _write(HERE / "criteria.json", helpers.CRITERIA)


def pipeline() -> None:
    with tempfile.TemporaryDirectory() as out:
        files = helpers.pipeline_artifacts(Path(out))
    _write(HERE / "pipeline.json", {"environment": helpers.environment(), "files": files})


if __name__ == "__main__":
    jobs = {"criteria": criteria, "pipeline": pipeline}
    names = sys.argv[1:] or list(jobs)
    if not set(names) <= set(jobs):
        sys.exit(f"usage: regen.py [{'] ['.join(jobs)}]")
    for name in names:
        jobs[name]()
