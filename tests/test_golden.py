"""The pipeline chain writes the files that tests/golden/pipeline.json pins,
byte for byte, at 1 and at 2 pool workers."""

import json

import pytest

from epinmt import pipeline as P

from helpers import GOLDEN_PIPELINE, environment, pipeline_artifacts


def test_pipeline_chain_writes_the_golden_files(tmp_path, monkeypatch):
    written = {}
    for workers in (1, 2):
        monkeypatch.setattr(P, "_workers", lambda workers=workers: workers)
        written[workers] = pipeline_artifacts(tmp_path / f"workers{workers}")
    assert written[1] == written[2]
    golden = json.loads(GOLDEN_PIPELINE.read_text(encoding="utf-8"))
    moved = [f"{key} {golden['environment'].get(key)!r} there, {value!r} here"
             for key, value in environment().items() if golden["environment"].get(key) != value]
    if moved:
        pytest.skip(f"{GOLDEN_PIPELINE.name} was made elsewhere: {'; '.join(moved)}")
    files = golden["files"]
    assert sorted(k for k in files.keys() | written[1].keys()
                  if files.get(k) != written[1].get(k)) == []
