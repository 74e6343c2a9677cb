"""Cold-start cost of each CLI subcommand: import time, peak RSS, SciPy loaded.

Usage:
    python3 tools/import_cost.py [--repeat N] [command ...]

For each subcommand at its `tools/cli_golden.py` argv (all of them by
default), a fresh interpreter imports `magbarrier.cli`, then runs the command
once into a temporary directory. Over N such processes the report keeps the
best (smallest) of each number:

- `import_s`: wall time of `import magbarrier.cli`;
- `import_mb`: peak RSS of the process right after that import;
- `peak_mb`: peak RSS of the whole run, the larger of the process's own and
  that of its largest forked worker;
- the public SciPy subpackages loaded by the import, and those the run added.

A report, not a gate: the numbers depend on the machine and its load. The
package comes from the `src/` next to this script.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from cli_golden import CASES  # noqa: E402

CHILD = """
import contextlib, io, json, resource, sys, tempfile, time

def scipy_packages():
    return sorted({name.split(".")[1] for name, module in list(sys.modules.items())
                   if name.startswith("scipy.") and not name.split(".")[1].startswith("_")
                   and hasattr(module, "__path__")})

def rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0

start = time.perf_counter()
from magbarrier import cli
import_s = time.perf_counter() - start
import_mb, at_import = rss_mb(resource.RUSAGE_SELF), scipy_packages()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:] + ["--outdir", tmp])
print(json.dumps({"import_s": import_s, "import_mb": import_mb, "exit": code,
                  "peak_mb": max(rss_mb(resource.RUSAGE_SELF),
                                 rss_mb(resource.RUSAGE_CHILDREN)),
                  "at_import": at_import,
                  "added": sorted(set(scipy_packages()) - set(at_import))}))
"""


def measure(argv):
    """One fresh-interpreter run of the child: its JSON record."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    first = {}
    for case in CASES.values():
        first.setdefault(case[0], case)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("commands", nargs="*", metavar="command",
                        help=f"any of {', '.join(sorted(first))} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.commands) - set(first))
    if unknown:
        parser.error(f"unknown command {', '.join(unknown)}")

    print(f"{'command':<9} {'exit':>4} {'import_s':>8} {'import_mb':>9} {'peak_mb':>8}"
          "  scipy at import | added by the run")
    for name in args.commands or sorted(first):
        runs = [measure(first[name]) for _ in range(args.repeat)]
        best = {key: min(run[key] for run in runs)
                for key in ("import_s", "import_mb", "peak_mb")}
        last = runs[-1]
        print(f"{name:<9} {last['exit']:>4} {best['import_s']:>8.3f} "
              f"{best['import_mb']:>9.1f} {best['peak_mb']:>8.1f}  "
              f"{' '.join(last['at_import'])} | {' '.join(last['added']) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
