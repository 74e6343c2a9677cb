import json

import pytest

import run
from workloads import CYCLE, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_operations_are_a_function_of_seed_and_index(name):
    w = WORKLOADS[name]
    first = [w.operation(7, i, 2) for i in range(CYCLE)]
    assert first == [w.operation(7, i, 2) for i in range(CYCLE)]
    assert first == [w.operation(7, i + CYCLE, 2) for i in range(CYCLE)]
    assert first != [w.operation(8, i, 2) for i in range(CYCLE)]
    assert len({json.dumps(op) for op in first}) == CYCLE


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_command_passes_jobs(name):
    for argv in WORKLOADS[name].operation(3, 0, 5):
        assert argv[argv.index("--jobs") + 1] == "5"


def test_ladder_spans_a_decade_on_a_fixed_grid():
    for seed in range(200):
        argv = WORKLOADS["ladder2d"].operation(seed, seed, 2)[0]
        lams = [float(v) for v in argv[argv.index("--lambdas") + 1].split(",")]
        assert lams == sorted(lams, reverse=True)
        assert lams[0] / lams[-1] > 10.0
        assert 0.0294 <= lams[-1] <= 0.0297


def test_golden_argv_match_the_generator():
    golden = json.loads(run.GOLDEN.read_text())
    assert sorted(golden) == sorted(WORKLOADS)
    for name, entry in golden.items():
        w = WORKLOADS[name]
        assert entry["seed"] == w.ref_seed
        assert len(entry["ops"]) == CYCLE
        for i, op in enumerate(entry["ops"]):
            assert op["argv"] == run._sans_jobs(w.operation(w.ref_seed, i, 2))
            assert op["sha256"]
