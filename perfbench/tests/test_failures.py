import time

import pytest

import run
from workloads import Workload

GOOD = [["minima", "--jmax", "1"]]
BAD = [["minima", "--jmax", "0"]]


class Scripted(Workload):
    def operation(self, seed, index, jobs):
        return BAD if index % 2 == 0 else GOOD


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_bad_argv_is_counted_and_the_run_goes_on(workdir, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "scripted",
                        Scripted("scripted", "test", 1, None))
    record, _ = run.bench("scripted", 5, 2.5, 0, time.monotonic() + 120)
    ops = record["ops"]
    assert len(ops) >= 2
    assert [op["ok"] for op in ops[:2]] == [False, True]
    assert ops[0]["reason"] == "minima exited 2"
    assert record["failed"] == sum(1 for op in ops if not op["ok"])
    assert record["failed_ratio"] == record["failed"] / len(ops)
    assert record["metrics"]["op_p50_s"] > 0.0
    assert (workdir / "results" / "scripted_seed5_trace0.json").is_file()


@pytest.mark.parametrize("argv, reason", [
    (["minima", "--no-such-flag"], "minima exited 2"),
    (["count1d", "--h", "0"], "count1d exited 1"),
])
def test_failures_are_classified(workdir, argv, reason):
    rec = run.run_op(workdir / "op", [argv], False, 0, False,
                     time.monotonic() + 60, None)
    assert not rec["ok"] and rec["reason"] == reason


def test_golden_mismatch_fails_the_operation(workdir):
    golden = {"argv": run._sans_jobs(GOOD), "sha256": {"minima.csv": "0"}}
    rec = run.run_op(workdir / "op", GOOD, False, 0, False,
                     time.monotonic() + 60, golden)
    assert rec["reason"] == "output bytes differ from golden digests"
