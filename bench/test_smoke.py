"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json

import pytest

import run
from gtvm import oracle
from workloads import WORKLOADS

TINY = {
    "corpus-batch": {"n": 8, "pool": 2},
    "transitive-fixpoint": {"jobs": [
        ("once-asm", "inc", 8, 2), ("once-gt", "inc", 8, 2),
        ("iter-asm", "inc", 8, 2), ("iter-gt", "inc", 8, 2), ("iter-asm", "inc", 4, 2),
        ("all-asm", "ls", 6, 2), ("all-gt", "ls", 6, 2),
        ("once-asm", "ls", 8, 2), ("once-gt", "ls", 8, 1), ("iter-asm", "ls", 5, 2),
    ]},
    "edit-requery": {"n": 12, "edits": 30},
}
SEED = 7


def main(capsys, workload, trace, cap=30.0):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
            "--trace", str(trace), "--cap", str(cap)]
    code = run.main(argv, sizes=TINY[workload])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float | int)
        assert any(line.split()[1:2] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


WRONG_ORACLE = {
    "corpus-batch": ("graph1_counts", lambda space: {"nodes": -1}),
    "transitive-fixpoint": ("two_hop_missing", lambda pairs: {(-1, -1)}),
    "edit-requery": ("graph1_counts", lambda space: {"nodes": -1}),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wrong_expected_value_trips_the_gate(capsys, monkeypatch, workload):
    name, wrong = WRONG_ORACLE[workload]
    monkeypatch.setattr(oracle, name, wrong)
    code, _, result = main(capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_time_cap_records_a_failed_timeout(capsys):
    code, _, result = main(capsys, "corpus-batch", 0, cap=1e-4)
    assert code != 0
    assert result["failed"] >= 1 and result["correct"] is True
