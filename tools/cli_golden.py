"""Byte-identity check of every CLI subcommand at pinned small configs.

Usage:
    PYTHONPATH=src python3 tools/cli_golden.py --write   # record digests
    PYTHONPATH=src python3 tools/cli_golden.py --check   # compare, exit 1 on drift

Each run calls `magbarrier.cli.main` once per case in a fresh output
directory and hashes every file it writes (sha256). The digests live in
`cli_golden.json` next to this script. Output bytes depend on the machine's
floating-point libraries, so the stored digests are a refactoring guard for
one machine, not a portable test; record them before a change and check
them after it. Each case prints its exit code, its verdict and its wall
time in seconds on stdout, so a run also gives the end-to-end time of every
subcommand at its pinned config. The `_jobs2` twins run the commands that
fork workers at `--jobs 2`; their digests were recorded where `--jobs` was
ignored, so they show that the output does not depend on `--jobs`. A case
named in `CONFIGS` also passes its text by `--config`, from a file beside
the output directory, so it shows that a config file and argv give the same
bytes. The whole run takes about 15 s on two cores.
"""

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_golden.json"

CASES = {
    "bands": ["bands", "--b", "1", "--kmin", "-2", "--kmax", "2",
              "--nbands", "3", "--samples", "11"],
    "bands_k0_json": ["bands", "--b", "1", "--kmin", "0", "--kmax", "0",
                      "--nbands", "6", "--format", "json"],
    "minima": ["minima", "--b", "1", "--jmax", "3"],
    "airy": ["airy", "--b", "1", "--ks=-15,-20", "--jmax", "2"],
    "ho": ["ho", "--b", "1", "--j", "1", "--kmin", "3", "--kmax", "5",
           "--samples", "3"],
    "mourre": ["mourre", "--b", "1", "--n", "1", "--samples", "41"],
    "budget": ["budget", "--b", "2", "--n", "1", "--samples", "41"],
    "localize": ["localize", "--b", "1", "--n", "1", "--samples", "3",
                 "--trace-samples", "41"],
    "count1d": ["count1d", "--lambdas", "1e-3,3e-4,1e-4"],
    "count2d": ["count2d", "--b", "1", "--hy", "0.8",
                "--lambdas", "0.3,0.14,0.066,0.03", "--jobs", "2"],
    # ny = 158 here against 155 above: both y-grid parities of the 2D sweep
    "count2d_even_ny": ["count2d", "--b", "1", "--hy", "0.8",
                        "--lambdas", "0.3,0.14,0.066,0.0295", "--jobs", "2"],
}
CASES["count2d_stability"] = CASES["count2d"] + ["--check-stability"]
# counts 3, 4, 7, 11: more Schur blocks are indefinite than at amplitude 1
CASES["count2d_amp3"] = ["count2d", "--b", "1", "--amplitude", "3", "--hy", "0.8",
                         "--lambdas", "0.3,0.14,0.066,0.03", "--jobs", "2"]
# the stability recount on one thread, and a ladder whose top rung sits above
# the band floor: exit 2 with a FAILED row
CASES["count2d_stability_jobs1"] = CASES["count2d_stability"] + ["--jobs", "1"]
CASES["count2d_above_band"] = ["count2d", "--b", "1", "--hy", "0.8",
                               "--lambdas", "0.9,0.3,0.1,0.05"]
# a y-extent past the unknowns budget: exit 3 with a FAILED row whose one
# short line gives ny to 3 digits
CASES["count2d_budget"] = ["count2d", "--amplitude", "1e300"]
# the unrefined row sampler and the JSON table over a k-range
CASES["bands_norefine"] = CASES["bands"] + ["--no-refine"]
CASES["bands_json"] = CASES["bands"] + ["--format", "json"]
# the single-k branch on one grid and on two, and a deep wedge past the
# default resolution
CASES["bands_k03_norefine"] = ["bands", "--b", "1", "--kmin", "0.3", "--kmax", "0.3",
                               "--nbands", "7", "--no-refine"]
CASES["bands_k03_one_band"] = ["bands", "--b", "1", "--kmin", "0.3", "--kmax", "0.3",
                               "--nbands", "1"]
CASES["airy_deep"] = ["airy", "--b", "1", "--ks=-60", "--jmax", "3"]
# a k-range past the default grid, which bands sizes as airy does
CASES["bands_deep"] = ["bands", "--b", "1", "--kmin", "-40", "--kmax", "-30",
                       "--nbands", "2", "--samples", "5"]
# 17 significant digits: shows the last bits of the Airy moments
CASES["airy_json"] = CASES["airy"] + ["--format", "json"]
# --jobs 2 twins of the commands that fork workers: their bytes must not
# depend on --jobs
CASES.update({f"{name}_jobs2": CASES[name] + ["--jobs", "2"]
              for name in ("bands", "minima", "ho", "mourre", "localize")})
# the long-double bisection for pair j = 2 at b = 2, and the 1D inertia at
# the benchmark's count1d shape
CASES["ho_b2_j2"] = ["ho", "--b", "2", "--j", "2", "--kmin", "6", "--kmax", "8",
                     "--samples", "3", "--jobs", "2"]
# samples from k = 1.9, past kappa_1 + 1 = 1.768 but short of the closed-form
# bound sqrt(b) + sqrt(b) = 2, so the entry check solves kappa_1; the ho case
# above starts past the bound and solves none
CASES["ho_near_minimum"] = ["ho", "--b", "1", "--j", "1", "--kmin", "1.9",
                            "--kmax", "4", "--samples", "3"]
CASES["ho_near_minimum_jobs2"] = CASES["ho_near_minimum"] + ["--jobs", "2"]
# a numeric --E, echoed as the number (E=1.5) and as given (E_spec=1.50)
CASES["mourre_E"] = ["mourre", "--b", "1", "--n", "1", "--samples", "41",
                     "--E", "1.50"]
CASES["count1d_ell"] = ["count1d", "--ell", "0.9", "--lambdas", "9e-4,2.7e-4"]
# the unverified count on the default ladder, and a slower tail at a heavier
# mass, whose bracketed counts 3, 3 fit nothing: exit 1
CASES["count1d_noverify"] = ["count1d", "--no-verify", "--lambdas", "1e-3,3e-4,1e-4"]
CASES["count1d_alpha15"] = ["count1d", "--alpha", "1.5", "--m", "2",
                            "--lambdas", "1e-3,3e-4"]
# a heavy mass at shallow gaps: the box reaches 6 decay lengths m/sqrt(lam)
# past the turning point, where 3 turning points stop short, and certifies
# counts 1, 1, which fit nothing: exit 1
CASES["count1d_heavy"] = ["count1d", "--m", "3", "--lambdas", "0.3,0.1"]
# 17 significant digits: shows the last bits of the potential through ell,
# threshold, beta1 and kappa1
CASES["count2d_json"] = CASES["count2d"] + ["--format", "json"]
# config-file cases: the text is passed by --config from a file beside the
# output directory; count1d_config must hash as count1d does
CONFIGS = {"count1d_config": "lambdas = 1e-3,3e-4,1e-4\nverify = yes\n"}
CASES["count1d_config"] = ["count1d"]


def run_case(cli, argv, config=None):
    """(exit code, {file name: sha256}) of one CLI run in a fresh directory,
    with the config text, if any, passed by --config."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        outdir.mkdir()
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code = cli.main(argv + ["--outdir", str(outdir)])
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(outdir.iterdir())}
    return code, digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    from magbarrier import cli

    stored = {} if args.write else json.loads(DIGESTS.read_text())
    results = {}
    for name, case in CASES.items():
        start = time.perf_counter()
        code, digests = run_case(cli, case, CONFIGS.get(name))
        elapsed = time.perf_counter() - start
        results[name] = {"argv": case, "exit": code, "sha256": digests}
        if name in CONFIGS:
            results[name]["config"] = CONFIGS[name]
        verdict = "recorded" if args.write else \
            "identical" if stored.get(name) == results[name] else "DIFF"
        print(f"{name}: exit {code}, {verdict}, {elapsed:.2f} s wall")
    if args.write:
        DIGESTS.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    drift = sorted(name for name in set(stored) | set(results)
                   if stored.get(name) != results.get(name))
    for name in drift:
        print(f"DIFF {name}: stored {stored.get(name)} != now {results.get(name)}")
    print(f"{len(results) - len(drift)}/{len(results)} cases identical")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
