"""``BENCH_dataflow.json`` is what the batch-size sweep records today.

``repro.experiments.ext_dataflow.record`` replays the same seeded query
set at each batch size, so the artifact is a pure function of the code:
re-deriving it must give the committed file byte for byte. A change that
moves a dataflow byte or time re-records it with
``python -m repro.experiments.ext_dataflow`` from the repository root.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.ext_dataflow import record

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_dataflow.json"


def test_recording_the_sweep_reproduces_the_committed_artifact(tmp_path):
    recorded = record(tmp_path / "BENCH_dataflow.json")
    assert recorded.read_text() == ARTIFACT.read_text()
