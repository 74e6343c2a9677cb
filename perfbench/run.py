"""magbarrier benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload ladder2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload window --write-golden

Closed loop with one client: the runner launches one fresh CLI process per
operation (perfbench/child.py) and waits for it to exit before it starts the
next, because CLI users pay the interpreter and import cold start on every
call. It stops launching when the next operation would end past --seconds.
Every operation is checked: exit code, the `pass` line of each output file,
and, on a workload's reference seed, the sha256 of every output file against
perfbench/golden.json. A failed operation is counted and the run goes on.

--trace 0 reports the end-to-end metrics. --trace 1 runs pairs of one
untraced and one traced copy of the seed's first operation and reports the
per-layer metrics (medians over the traced copies) plus the tracing
overhead. The runner never sets BLAS or OpenMP thread variables; it records
them as found. The last stdout line is the JSON result; the full record
(provenance, every argv, per-operation figures) goes to
perfbench/_work/results/.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import CYCLE, WORKLOADS, nproc  # noqa: E402

WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_per_op_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0     # the whole run, whatever --seconds says
OP_TIMEOUT_S = 150.0


def _monotonic():
    # CLOCK_MONOTONIC is system-wide, so the child's ready stamp and the
    # runner's spawn stamp share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digests(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())} if outdir.is_dir() else {}


def _sans_jobs(commands):
    # Output bytes do not depend on --jobs, so goldens hold for any nproc.
    return [[a for i, a in enumerate(argv)
             if a != "--jobs" and (i == 0 or argv[i - 1] != "--jobs")]
            for argv in commands]


def _check(commands, outdir, stdout, result, digests, golden):
    """Why the operation failed, or None when every check passed."""
    for argv, code in zip(commands, result["codes"]):
        if code != 0:
            return f"{argv[0]} exited {code}"
    for argv in commands:
        command = argv[0]
        if f"{command}: PASS" not in stdout:
            return f"{command}: no PASS status line"
        path = outdir / f"{command}.csv"
        lines = path.read_text().splitlines() if path.is_file() else []
        if not lines or lines[-1] != "# pass=true":
            return f"{command}: output lacks '# pass=true'"
    if golden is not None:
        if golden["argv"] != _sans_jobs(commands):
            return "reference argv differs from golden.json"
        if digests != golden["sha256"]:
            return "output bytes differ from golden digests"
    return None


def run_op(opdir, commands, traced, index, provenance, deadline, golden):
    """Run one operation in a fresh child; return its record."""
    opdir.mkdir(parents=True)
    outdir = opdir / "out"
    spec = {"commands": commands, "outdir": str(outdir), "trace": traced,
            "op_id": index, "spans": str(opdir / "spans.json"),
            "result": str(opdir / "result.json"), "provenance": provenance}
    (opdir / "spec.json").write_text(json.dumps(spec))
    timeout = max(1.0, min(OP_TIMEOUT_S, deadline - _monotonic()))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = _monotonic()
    with open(opdir / "stdout", "wb") as out, open(opdir / "stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(opdir / "spec.json")],
                                stdout=out, stderr=err, cwd=ROOT)
        try:
            proc.wait(timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            timed_out = True
    t_exit = _monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec = {"index": index, "argv": commands, "traced": traced,
           "t_spawn": t_spawn, "t_exit": t_exit, "wall_s": t_exit - t_spawn,
           "cpu_s": (after.ru_utime - before.ru_utime)
           + (after.ru_stime - before.ru_stime),
           "exit": proc.returncode, "ok": False}
    result_path = opdir / "result.json"
    if timed_out:
        rec["reason"] = f"timeout after {timeout:.0f} s"
    elif proc.returncode != 0 or not result_path.is_file():
        rec["reason"] = f"child exited {proc.returncode} without a result"
    else:
        result = json.loads(result_path.read_text())
        rec.update(setup_s=result["t_ready"] - t_spawn, op_s=result["op_s"],
                   maxrss_mb=result["maxrss_kb"] / 1024.0)
        stdout = (opdir / "stdout").read_text(errors="replace")
        rec["sha256"] = _digests(outdir)
        rec["reason"] = _check(commands, outdir, stdout, result,
                               rec["sha256"], golden)
        rec["ok"] = rec["reason"] is None
        if "provenance" in result:
            rec["provenance"] = result["provenance"]
        if traced and rec["ok"]:
            spans = [tuple(s) for s in
                     json.loads((opdir / "spans.json").read_text())]
            bytes_out = sum(p.stat().st_size for p in outdir.iterdir())
            rec["layers"] = layers.op_metrics(spans, result["solved_level"],
                                              bytes_out)
    if rec["ok"]:
        shutil.rmtree(opdir)
    return rec


def _golden_for(workload, seed, index):
    if seed != workload.ref_seed or not GOLDEN.is_file():
        return None
    ops = json.loads(GOLDEN.read_text()).get(workload.name, {}).get("ops", [])
    return ops[index % CYCLE] if index % CYCLE < len(ops) else None


def run_workload(workload, seed, seconds, trace, rundir, run_deadline):
    """Closed loop of operations until the next one would end past `seconds`."""
    jobs = nproc()
    ops = []
    start = _monotonic()
    longest = 0.0
    index = 0
    while True:
        t0 = _monotonic()
        # A trace run repeats the seed's first operation, untraced then
        # traced, so its counts repeat exactly whatever the run length.
        op = 0 if trace else index
        commands = workload.operation(seed, op, jobs)
        golden = _golden_for(workload, seed, op)
        for traced in ([False, True] if trace else [False]):
            ops.append(run_op(rundir / f"op{len(ops)}", commands, traced,
                              len(ops), not ops, run_deadline, golden))
        index += 1
        longest = max(longest, _monotonic() - t0)
        if _monotonic() + longest > min(start + seconds, run_deadline):
            return ops


def end_to_end(ops):
    ok = [r for r in ops if r["ok"]]
    ready = [r for r in ops if "setup_s" in r]
    latencies = sorted(r["op_s"] for r in ok)
    span = (max(r["t_exit"] for r in ops) - min(r["t_spawn"] for r in ops))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in ready) if ready else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "ops_per_s": len(ok) / span,
        "cpu_per_op_s": statistics.median(r["cpu_s"] for r in ok) if ok else 0.0,
        "peak_rss_mb": max((r["maxrss_mb"] for r in ready), default=0.0),
    }
    n = len(latencies)
    # Highest percentile with at least ten samples beyond it (nearest rank).
    tail = ({"value_s": latencies[n - 11], "percentile": 100.0 * (n - 10) / n,
             "samples": n} if n >= 11 else
            {"value_s": None, "percentile": None, "samples": n})
    return metrics, tail


def per_layer(ops):
    traced = [r for r in ops if r["traced"] and r["ok"]]
    plain = [r["op_s"] for r in ops if not r["traced"] and r["ok"]]
    metrics = {}
    for name, _, _ in layers.METRICS:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        # Counts are equal across the copies; keep them integers.
        pick = (statistics.median_low if all(isinstance(v, int) for v in values)
                else statistics.median)
        metrics[name] = pick(values) if values else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["op_s"] for r in traced) / statistics.median(plain)
        if traced and plain else 0.0)
    return metrics


def provenance(ops, seed):
    child = next((r["provenance"] for r in ops if "provenance" in r), {})
    return {"nproc": nproc(), "jobs": nproc(), **child,
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(ROOT), "runner_argv": sys.argv,
            "seed": seed, "executable": sys.executable,
            "loop": "closed, 1 client, one fresh process per operation"}


def bench(name, seed, seconds, trace, run_deadline):
    workload = WORKLOADS[name]
    rundir = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    ops = run_workload(workload, seed, seconds, trace, rundir, run_deadline)
    failed = sum(1 for r in ops if not r["ok"])
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "reference_seed": workload.ref_seed,
              "provenance": provenance(ops, seed),
              "attempted": len(ops), "failed": failed,
              "failed_ratio": failed / len(ops)}
    if trace:
        record["metrics"] = per_layer(ops)
        table = layers.METRICS
    else:
        record["metrics"], record["op_tail"] = end_to_end(ops)
        table = END_TO_END
    record["ops"] = [{k: v for k, v in r.items() if k != "provenance"}
                     for r in ops]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload={name} seed={seed} trace={trace} attempted={len(ops)} "
          f"failed={failed} failed_ratio={record['failed_ratio']:.3g}")
    for r in ops:
        if not r["ok"]:
            print(f"  FAILED op{r['index']}: {r['reason']}: {r['argv']}")
    for metric, unit, better in table:
        print(f"  {metric} = {record['metrics'][metric]:.6g} {unit} "
              f"({better} is better)")
    if not trace:
        tail = record["op_tail"]
        print(f"  op_tail_s = {tail['value_s']:.6g} s at "
              f"p{tail['percentile']:.3g} of {tail['samples']} operations"
              if tail["value_s"] is not None else
              f"  op_tail_s undefined: {tail['samples']} operations, "
              "needs 11 for ten beyond the percentile")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return record, table


def write_golden(name):
    """Store the reference seed's argv lists and output digests."""
    workload = WORKLOADS[name]
    rundir = WORK / f"{name}-golden"
    shutil.rmtree(rundir, ignore_errors=True)
    entries = []
    for index in range(CYCLE):
        commands = workload.operation(workload.ref_seed, index, nproc())
        rec = run_op(rundir / f"op{index}", commands, False, index, False,
                     _monotonic() + OP_TIMEOUT_S, None)
        if not rec["ok"]:
            sys.exit(f"reference operation {index} failed: {rec['reason']}")
        entries.append({"argv": _sans_jobs(commands), "sha256": rec["sha256"]})
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[name] = {"seed": workload.ref_seed, "ops": entries}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the reference seed's digests")
    args = parser.parse_args()
    if not (ROOT / "src" / "magbarrier" / "cli.py").is_file():
        print(f"error: no magbarrier sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_golden:
        for name in names:
            write_golden(name)
        return 0
    run_deadline = _monotonic() + RUN_LIMIT_S * len(names)
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record, table = bench(name, args.seed, args.seconds, args.trace,
                              run_deadline)
        outcome["attempted"] += record["attempted"]
        outcome["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit, _ in table:
            outcome["metrics"][prefix + metric] = {
                "value": record["metrics"][metric], "unit": unit}
    outcome["correct"] = outcome["failed"] == 0
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
