"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the argv lists to run, the output directory, the trace flag and
where to write the result. The child imports the CLI (that is the set-up the
runner times), runs each argv through `cli.main` exactly as the console
script would, and writes one JSON result. The runner reads the CLI's output
files itself.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run_main(cli, argv):
    """Exit code of `magbarrier ARGV`, as `sys.exit(main())` would give it."""
    try:
        return int(cli.main(argv) or 0)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def _provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(HERE.parent / "src"))
    import magbarrier
    from magbarrier import cli

    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(op_id=spec["op_id"])
        tracer.install(magbarrier)
    codes, op_s = [], 0.0
    for argv in spec["commands"]:
        start = time.perf_counter()
        code = _run_main(cli, argv + ["--outdir", spec["outdir"]])
        op_s += time.perf_counter() - start
        codes.append(code)
        if code != 0:
            break
    result = {"t_ready": t_ready, "op_s": op_s, "codes": codes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        info = magbarrier.localization._solved_level.cache_info()
        result["solved_level"] = [info.hits, info.misses]
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    if spec["provenance"]:
        result["provenance"] = _provenance()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
