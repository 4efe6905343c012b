"""Whole runs against recorded digests of their report and checkpoint bytes.

The scenarios and the recorder live in ``tests/record_golden.py``: all five
models under ``RO_RS,full``, ``TO_LS,uni20`` and ``RO_LS,uni5``, an FM run
with value metrics, an FM run with user and item features, a BPR run
stopped after epoch 1 and resumed, and one ``recbench.evaluate`` report.
"""

import json

import pytest

from tests.record_golden import DIGESTS, environment, run_scenarios


def test_reports_and_checkpoints_match_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["environment"] != environment():
        pytest.skip(f"digests were recorded under {recorded['environment']}, "
                    f"this is {environment()}; re-record with "
                    "tests/record_golden.py")
    monkeypatch.chdir(tmp_path)
    digests = run_scenarios()
    assert sorted(digests) == sorted(recorded["files"])
    differ = [name for name in sorted(digests)
              if digests[name] != recorded["files"][name]]
    assert not differ, f"files differ from the recorded digests: {differ}"
