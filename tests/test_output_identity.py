"""Output identity: the benchmark's CLI invocations print what ``output_record.json`` holds.

The record is rewritten by ``python tests/record_outputs.py`` when an output
is meant to change.
"""

from __future__ import annotations

import json

import pytest

import record_outputs
import workloads

ENTRIES = json.loads(record_outputs.RECORD.read_text())


def test_the_record_lists_every_plan_invocation():
    listed = [(e["seed"], e["workload"], e["argv"]) for e in ENTRIES]
    assert listed == record_outputs.invocations()


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{i}-{e['workload']}-seed{e['seed']}" for i, e in enumerate(ENTRIES)]
)
def test_invocation_prints_its_recorded_output(entry, tmp_path, monkeypatch):
    workloads.write_inputs(entry["seed"], tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = record_outputs.differences(entry, record_outputs.observe(entry["argv"]))
    assert not lines, "\n".join(lines)


def test_a_planted_one_digit_change_is_named_with_its_relative_difference():
    # the recorded spectral run at (1, 16), its gap printed with one digit changed
    recorded = next(e for e in ENTRIES if e["argv"][:3] == ["spectral", "--n-flux", "1"])
    code, stdout = record_outputs.run(recorded["argv"])
    gap = recorded["numbers"]["gap_degree1"]
    planted = gap[:-1] + str((int(gap[-1]) + 1) % 10)
    observed = record_outputs.entry(recorded["argv"], code, stdout.replace(gap, planted))
    assert not record_outputs.differences(recorded, record_outputs.entry(recorded["argv"], code, stdout))
    field, digest = record_outputs.differences(recorded, observed)
    assert field.startswith(f"gap_degree1: recorded {gap}, now {planted} (relative difference ")
    assert digest.startswith("stdout SHA-256: recorded ")


def test_the_fields_of_a_csv_body_and_its_json_payload():
    stdout = "claim,N,value\nweyl-scalar,2,0.5\nweyl-scalar,3,-0.0\n{\n  \"a\": [1.5, null]\n}\n"
    assert record_outputs.numbers(stdout) == {
        "r0.claim": "weyl-scalar", "r0.N": "2", "r0.value": "0.5",
        "r1.claim": "weyl-scalar", "r1.N": "3", "r1.value": "-0.0",
        "a[0]": "1.5", "a[1]": "null",
    }
