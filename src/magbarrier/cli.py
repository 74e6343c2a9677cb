"""Command-line front end for the magnetic-barrier spectral toolkit.

One subcommand per analysis: band tables and plot data, band minima, wedge
and oscillator asymptotics, spectral-window reports with their constants and
perturbation budgets, localization sweeps, and 1D/2D eigenvalue counting.
Every run writes one deterministic CSV or JSON document (floats at 12 and 17
significant digits respectively), echoing the effective configuration into
the output header so a file reproduces itself.

Exit codes: 0 all pass flags true; 1 a computed check failed, written as
pass=false under the full table; 2 usage or configuration error; 3
resolution or resource limit. Multi-rung commands stopped by an error (exit
2 or 3) flush partial tables with a FAILED marker before reporting it. In
count1d and count2d, a ladder whose nonzero counts take fewer than two
values fits nothing and fails with exit 1; count2d also fails when fewer
than four nonzero rungs remain or they span less than a decade.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, bands, counting, fiber, localization, mourre
from .counting import Grid2DSpec
from .errors import ConfigurationError, InvariantViolation, NumericalError

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_RESOLUTION = 3

JSON_DIGITS = 17
CSV_DIGITS = 12
STABILITY_REFINE = 1.25


# ---------------------------------------------------------------------------
# option schema (single source of truth for flags and config files)


@dataclass(frozen=True)
class Option:
    kind: str          # float | int | str | bool | floats
    default: object
    help: str


# the spectral window of mourre, budget and localize
_WINDOW = {
    "b": Option("float", 1.0, "field strength"),
    "n": Option("int", 1, "spectral window ordinal"),
    "E": Option("str", "mid", "window energy, or 'mid'"),
    "kmin": Option("float", None, "trace left end (default -4 sqrt(b))"),
    "kmax": Option("float", None, "trace right end (default 6 sqrt(b))"),
    "nbands": Option("int", None, "bands traced (default max(2n+1, 5))"),
}

COMMANDS = {
    "bands": {
        "b": Option("float", 1.0, "field strength"),
        "kmin": Option("float", -4.0, "left end of the wave-number range"),
        "kmax": Option("float", 6.0, "right end of the wave-number range"),
        "nbands": Option("int", 8, "number of bands"),
        "samples": Option("int", 81, "k-samples for the trace"),
        "refine": Option("bool", True, "Richardson-refine eigenvalues"),
    },
    "minima": {
        "b": Option("float", 1.0, "field strength"),
        "jmax": Option("int", 3, "even-band ordinals 1..jmax"),
    },
    "airy": {
        "b": Option("float", 1.0, "field strength"),
        "ks": Option("floats", (-15.0, -20.0, -40.0), "wave numbers"),
        "jmax": Option("int", 4, "bands 1..jmax"),
    },
    "ho": {
        "b": Option("float", 1.0, "field strength"),
        "j": Option("int", 1, "band-pair ordinal"),
        "kmin": Option("float", 3.0, "left end of the splitting window"),
        "kmax": Option("float", 6.0, "right end of the splitting window"),
        "samples": Option("int", 7, "k-samples across the window"),
    },
    "mourre": {
        **_WINDOW,
        "samples": Option("int", 81, "k-samples for the trace"),
    },
    "budget": {
        **_WINDOW,
        "samples": Option("int", 81, "k-samples for the trace"),
    },
    "localize": {
        **_WINDOW,
        "samples": Option("int", 9, "envelope samples per band"),
        "trace_samples": Option("int", 81, "k-samples for the trace"),
    },
    "count1d": {
        "alpha": Option("float", 1.0, "decay exponent"),
        "ell": Option("float", 1.0, "tail coefficient of Q"),
        "m": Option("float", 1.0, "effective mass"),
        "lambdas": Option("floats", (1e-3, 3e-4, 1e-4), "gap ladder"),
        "h": Option("float", counting.DEFAULT_H_1D, "grid step"),
        "verify": Option("bool", True,
                         "certify each count by a Dirichlet-Neumann bracket"),
    },
    "count2d": {
        "b": Option("float", 1.0, "field strength"),
        "alpha": Option("float", 1.0, "decay exponent"),
        "amplitude": Option("float", 1.0, "potential amplitude"),
        "lambdas": Option("floats",
                          (0.0590106, 0.0295053, 0.0118021, 0.00590106),
                          "gap ladder below the band minimum"),
        "hx": Option("float", counting.DEFAULT_HX_2D, "transverse grid step"),
        "hy": Option("float", counting.DEFAULT_HY_2D, "longitudinal grid step"),
        "max_unknowns": Option("int", counting.MAX_UNKNOWNS_2D,
                               "memory budget in grid unknowns"),
        "check_stability": Option("bool", False,
                                  "recount the largest rung on a finer grid"),
    },
}

_CONVERTERS = {
    "float": float,
    "int": int,
    "str": str,
}


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    try:
        values = tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated numbers: {exc}")
    if not values:
        raise ConfigurationError("expected at least one number")
    return values


def _convert(option, text):
    if option.kind == "bool":
        return _parse_bool(text)
    if option.kind == "floats":
        return _parse_floats(text)
    try:
        return _CONVERTERS[option.kind](text)
    except ValueError as exc:
        raise ConfigurationError(str(exc))


def load_config_file(path):
    """key=value pairs, one per line; '#' starts a comment."""
    entries = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}")
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{number}: expected key=value")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def effective_config(command, args):
    """Flags override config-file entries override schema defaults."""
    schema = COMMANDS[command]
    file_entries = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_entries) - set(schema))
    if unknown:
        raise ConfigurationError(
            f"unknown config keys for {command}: {', '.join(unknown)}")
    cfg = {}
    for name, option in schema.items():
        flag = getattr(args, name)
        if flag is not None:
            cfg[name] = _convert(option, flag) if isinstance(flag, str) \
                and option.kind in ("floats",) else flag
        elif name in file_entries:
            cfg[name] = _convert(option, file_entries[name])
        else:
            cfg[name] = option.default
        if option.kind in ("float", "floats") and cfg[name] is not None:
            values = cfg[name] if option.kind == "floats" else (cfg[name],)
            if not all(math.isfinite(v) for v in values):
                raise ConfigurationError(f"{name} must be finite, got {cfg[name]}")
        if option.kind == "int" and cfg[name] is not None and cfg[name] < 1:
            raise ConfigurationError(f"{name} must be at least 1, got {cfg[name]}")
    return cfg


# ---------------------------------------------------------------------------
# rendering


def _py(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _csv_cell(value):
    value = _py(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{CSV_DIGITS}g}"
    if isinstance(value, (tuple, list)):
        return ",".join(_csv_cell(v) for v in value)
    return str(value)


def render_csv(payload):
    lines = [f"# schema_version={SCHEMA_VERSION}",
             f"# command={payload['command']}"]
    for key in sorted(payload["config"]):
        lines.append(f"# {key}={_csv_cell(payload['config'][key])}")
    lines.append(",".join(payload["columns"]))
    for row in payload["rows"]:
        lines.append(",".join(_csv_cell(v) for v in row))
    for key in sorted(payload["summary"]):
        lines.append(f"# {key}={_csv_cell(payload['summary'][key])}")
    if payload.get("failed"):
        lines.append(f"# FAILED: {payload['failed']}")
    lines.append(f"# pass={_csv_cell(payload['pass'])}")
    return "\n".join(lines) + "\n"


_MARK = "~~f~~"   # ASCII sentinel json.dumps leaves unescaped


def _mark_floats(obj):
    obj = _py(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return repr(obj)
        return f"{_MARK}{obj:.{JSON_DIGITS}g}{_MARK}"
    if isinstance(obj, dict):
        return {key: _mark_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mark_floats(val) for val in obj]
    return obj


def render_json(payload):
    doc = {"schema_version": SCHEMA_VERSION,
           "command": payload["command"],
           "config": payload["config"],
           "columns": payload["columns"],
           "rows": payload["rows"],
           "summary": payload["summary"],
           "failed": payload.get("failed"),
           "pass": payload["pass"]}
    text = json.dumps(_mark_floats(doc), indent=2, sort_keys=True)
    return text.replace(f'"{_MARK}', "").replace(f'{_MARK}"', "") + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _payload(command, cfg, columns, rows, summary, passed, failed=None):
    return {"command": command, "config": dict(cfg), "columns": columns,
            "rows": rows, "summary": summary, "pass": bool(passed),
            "failed": failed}


def _plot_blocks(table):
    lines = ["# band functions: k omega, blank line between blocks",
             f"# b={table.b:.{CSV_DIGITS}g}"]
    for j_idx, ws in enumerate(table.omega):
        lines.append(f"# band {j_idx + 1} ({table.parities[j_idx].value})")
        for k, w in zip(table.ks, ws):
            lines.append(f"{k:.{CSV_DIGITS}g} {w:.{CSV_DIGITS}g}")
        lines.append("")
    lines.append("# reference parabola E = k^2")
    for k in table.ks:
        lines.append(f"{k:.{CSV_DIGITS}g} {k * k:.{CSV_DIGITS}g}")
    return "\n".join(lines) + "\n"


def cmd_bands(cfg, jobs):
    if cfg["kmin"] > cfg["kmax"]:
        raise ConfigurationError("kmin must not exceed kmax")
    if cfg["kmin"] == cfg["kmax"]:
        # energies only: the table prints no vector-derived column
        grids = fiber.first_levels(cfg["b"], cfg["kmin"], cfg["nbands"],
                                   refine=cfg["refine"], vectors=False)
        rows = [[fiber.refined([pair.omega for pair in pairs])]
                for pairs in zip(*grids)]
        return _payload("bands", cfg, ["omega"], rows,
                        {"k": cfg["kmin"], "n_levels": len(rows)}, True)
    table = bands.trace(cfg["b"], cfg["kmin"], cfg["kmax"],
                        n_bands=cfg["nbands"], base_samples=cfg["samples"],
                        refine=cfg["refine"], jobs=jobs)
    mono = bands.monotonicity_report(table)
    columns = ["k", "j", "parity", "omega", "domega_fh", "domega_bd",
               "psi0", "dpsi0", "k_squared"]
    rows = []
    for i, k in enumerate(table.ks):
        for j_idx, parity in enumerate(table.parities):
            rows.append([float(k), j_idx + 1, parity.value,
                         table.omega[j_idx, i], table.domega_fh[j_idx, i],
                         table.domega_bd[j_idx, i], table.psi0[j_idx, i],
                         table.dpsi0[j_idx, i], float(k) ** 2])
    summary = {"monotonicity_checked": mono.checked,
               "monotonicity_violations": len(mono.violations)}
    payload = _payload("bands", cfg, columns, rows, summary,
                       not mono.violations)
    payload["extra_files"] = {"bands_plot.dat": _plot_blocks(table)}
    return payload


def cmd_minima(cfg, jobs):
    b = cfg["b"]
    columns = ["j", "kappa", "energy", "beta", "psi0_at_kappa",
               "kappa_max", "energy_lo", "energy_hi", "pass"]
    rows = []
    # the minima are independent root searches, one pool unit each, read in
    # ordinal order
    with bands._k_map(jobs) as k_map:
        records = list(k_map(functools.partial(bands.find_minimum, b=b),
                             range(1, cfg["jmax"] + 1)))
    for j, rec in enumerate(records, 1):
        kappa_max = math.sqrt((4 * j - 3) * b)
        energy_lo = max(2 * j - 3, 0) * b
        energy_hi = (2 * j - 1) * b
        ok = (0.0 < rec.kappa < kappa_max) and (energy_lo < rec.energy < energy_hi)
        rows.append([j, rec.kappa, rec.energy, rec.beta, rec.psi0_at_kappa,
                     kappa_max, energy_lo, energy_hi, ok])
    passed = all(row[-1] for row in rows)
    return _payload("minima", cfg, columns, rows,
                    {"n_minima": len(rows)}, passed)


def cmd_airy(cfg, jobs):
    columns = ["k", "j", "kind", "predicted", "measured", "measured_error",
               "bound", "pass"]
    rows = []
    for k in cfg["ks"]:
        for j in range(1, cfg["jmax"] + 1):
            check = asymptotics.airy_check(cfg["b"], k, j)
            pred = check.prediction
            rows.append([pred.k, pred.j, pred.kind.value, pred.predicted,
                         check.omega, check.measured_error, pred.bound,
                         check.passed])
    passed = all(row[-1] for row in rows)
    return _payload("airy", cfg, columns, rows, {"n_checks": len(rows)}, passed)


def cmd_ho(cfg, jobs):
    ks = np.linspace(cfg["kmin"], cfg["kmax"], cfg["samples"])
    fit = asymptotics.splitting_fit(cfg["b"], cfg["j"], ks, jobs=jobs)
    columns = ["k", "gap_plus", "gap_minus", "splitting", "retained"]
    rows = [[s.k, s.gap_plus, s.gap_minus, s.splitting, s.splitting > fit.floor]
            for s in fit.samples]
    summary = {"rate": fit.rate, "r2": fit.r2, "floor": fit.floor,
               "n_retained": len(fit.retained)}
    return _payload("ho", cfg, columns, rows, summary, fit.passed)


def _window_report(cfg, trace_samples, jobs):
    b, n = cfg["b"], cfg["n"]
    if not b > 0.0:
        raise ConfigurationError(f"field strength must be positive, got {b}")
    root_b = math.sqrt(b)
    kmin = cfg["kmin"] if cfg["kmin"] is not None else -4.0 * root_b
    kmax = cfg["kmax"] if cfg["kmax"] is not None else 6.0 * root_b
    nbands = cfg["nbands"] if cfg["nbands"] is not None else max(2 * n + 1, 5)
    # a number is refused before the trace; only 'mid' reads the table
    spec = str(cfg["E"]).strip()
    if spec != "mid":
        try:
            energy = float(spec)
        except ValueError:
            raise ConfigurationError(f"E must be a number or 'mid', got {spec!r}")
        if not math.isfinite(energy):
            raise ConfigurationError(f"E must be finite, got {energy}")
    table = bands.trace(b, kmin, kmax, n_bands=nbands,
                        base_samples=trace_samples, refine=True, jobs=jobs)
    if spec == "mid":
        level = (2 * n - 1) * b
        ceiling = mourre.window_ceiling(n, b, table)
        energy = 0.5 * (level + ceiling)
    cfg.update(kmin=kmin, kmax=kmax, nbands=nbands, E=energy, E_spec=spec)
    return mourre.window_report(n, energy, b, table)


def cmd_mourre(cfg, jobs):
    report = _window_report(cfg, cfg["samples"], jobs)
    columns = ["band", "k_left", "k_right", "c_band"]
    rows = [[j, left, right, c]
            for (j, left, right), c in zip(report.preimages, report.c_per_band)]
    summary = {"delta0": report.window.delta, "delta": report.window.delta,
               "c_n": report.c_n, "window_E": report.window.E}
    passed = report.window.delta > 0.0 and report.c_n > 0.0
    return _payload("mourre", cfg, columns, rows, summary, passed)


def cmd_budget(cfg, jobs):
    report = _window_report(cfg, cfg["samples"], jobs)
    budget = mourre.perturbation_budget(report)
    columns = ["a_star", "q_star", "F"]
    rows = [[budget.a_star, budget.q_star, budget.F_value]]
    summary = {"delta0": budget.delta0, "c_n": budget.c_n,
               "delta": budget.delta}
    return _payload("budget", cfg, columns, rows, summary, budget.F_value < 0.5)


def cmd_localize(cfg, jobs):
    report = _window_report(cfg, cfg["trace_samples"], jobs)
    checks = localization.window_envelope_sweep(report,
                                                n_samples=cfg["samples"])
    columns = ["j", "k", "x_n", "max_ratio", "tolerance", "pass"]
    rows = [[check.j, check.k, check.x_n, check.max_ratio,
             localization.ENVELOPE_TOL, check.envelope_ok] for check in checks]
    summary = {"n_checks": len(rows),
               "worst_ratio": max((r[3] for r in rows), default=0.0)}
    return _payload("localize", cfg, columns, rows, summary,
                    all(r[-1] for r in rows))


def cmd_count1d(cfg, jobs):
    lambdas = counting.distinct_ladder(cfg["lambdas"])  # before any count
    alpha, ell, m = cfg["alpha"], cfg["ell"], cfg["m"]
    constant = counting.counting_constant_1d(alpha, ell, m)
    expected = 1.0 / alpha - 0.5

    def q_model(y):
        return ell * (1.0 + np.asarray(y, dtype=float) ** 2) ** (-alpha / 2.0)

    columns = ["lambda", "count", "scaled_count"]
    rows, counts, failed, exc = [], [], None, None
    for lam in lambdas:
        try:
            n = counting.count_1d(m, q_model, lam,
                                  counting.line_half_width(ell, lam, alpha, m),
                                  h=cfg["h"], verify_width=cfg["verify"])
        except (ConfigurationError, NumericalError, InvariantViolation) as err:
            failed, exc = f"{type(err).__name__}: {err}", err
            break
        counts.append(n)
        rows.append([lam, n, lam ** expected * n])
    exponent, prefactor = counting.power_law_fit([r[0] for r in rows], counts)
    summary = {"expected_exponent": expected, "closed_form_constant": constant,
               "fitted_exponent": exponent, "fitted_prefactor": prefactor}
    # a ladder whose nonzero counts take fewer than two values fits nothing,
    # and fails
    payload = _payload("count1d", cfg, columns, rows, summary,
                       failed is None and exponent is not None, failed)
    payload["_exc"] = exc
    return payload


def cmd_count2d(cfg, jobs):
    b, alpha = cfg["b"], cfg["alpha"]
    lambdas = counting.checked_ladder(cfg["lambdas"])  # before any solve
    V = counting.standard_potential(alpha, amplitude=cfg["amplitude"])
    rec = bands.find_minimum(1, b)
    (ground,) = fiber.band(b, rec.kappa, 1)
    reduced = counting.reduced_potential(V, ground, np.linspace(0.0, 500.0, 4001))
    constant = counting.counting_constant_1d(alpha, reduced.ell,
                                             math.sqrt(rec.beta))
    expected = 1.0 / alpha - 0.5
    spec = Grid2DSpec(hx=cfg["hx"], hy=cfg["hy"],
                      max_unknowns=cfg["max_unknowns"])
    columns = ["lambda", "count", "scaled_count"]
    summary = {"expected_exponent": expected, "closed_form_constant": constant,
               "ell": reduced.ell, "beta1": rec.beta, "kappa1": rec.kappa}
    try:
        counts, meta = counting.count_2d(b, V, lambdas, spec=spec,
                                         ell=reduced.ell, jobs=jobs)
    except (ConfigurationError, NumericalError, InvariantViolation) as err:
        payload = _payload("count2d", cfg, columns, [], summary, False,
                           f"{type(err).__name__}: {err}")
        payload["_exc"] = err
        return payload
    rows = [[lam, n, lam ** expected * n] for lam, n in zip(lambdas, counts)]
    # counts with nothing to fit fail the check, as count1d's do
    exponent, prefactor = counting.ladder_fit(lambdas, counts)
    passed = exponent is not None
    gap, ratio = (abs(exponent - expected),
                  prefactor / constant) if passed else (None, None)
    summary.update(fitted_exponent=exponent, fitted_prefactor=prefactor,
                   exponent_gap=gap, prefactor_ratio=ratio,
                   threshold=meta["threshold"], unknowns=meta["unknowns"])
    if passed and cfg["check_stability"]:
        # the ladder's first rung, its largest lambda, recounted on the same
        # box with both steps refined and its own discrete threshold; a drift
        # beyond one count flags the result as grid-limited
        finer = Grid2DSpec(hx=cfg["hx"] / STABILITY_REFINE,
                           hy=cfg["hy"] / STABILITY_REFINE, lx=meta["lx"],
                           y_width=meta["y_width"],
                           max_unknowns=cfg["max_unknowns"])
        (refined,), _ = counting.count_2d(b, V, lambdas[:1], spec=finer,
                                          jobs=jobs)
        stable = abs(refined - counts[0]) <= 1
        summary.update(stability_base=counts[0],
                       stability_refined=refined, stable=stable)
        passed = stable
    return _payload("count2d", cfg, columns, rows, summary, passed)


DISPATCH = {
    "bands": cmd_bands,
    "minima": cmd_minima,
    "airy": cmd_airy,
    "ho": cmd_ho,
    "mourre": cmd_mourre,
    "budget": cmd_budget,
    "localize": cmd_localize,
    "count1d": cmd_count1d,
    "count2d": cmd_count2d,
}


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magbarrier",
        description="Spectral analysis of the magnetic-barrier operator.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, schema in COMMANDS.items():
        sub = subparsers.add_parser(command)
        for name, option in schema.items():
            flag = f"--{name.replace('_', '-')}"
            if option.kind == "bool":
                sub.add_argument(flag, dest=name, default=None,
                                 action=argparse.BooleanOptionalAction,
                                 help=option.help)
            elif option.kind == "floats":
                sub.add_argument(flag, dest=name, default=None, type=str,
                                 help=option.help + " (comma-separated)")
            elif option.kind == "int":
                sub.add_argument(flag, dest=name, default=None, type=int,
                                 help=option.help)
            else:
                sub.add_argument(flag, dest=name, default=None, type=str
                                 if option.kind == "str" else float,
                                 help=option.help)
        sub.add_argument("--config", default=None,
                         help="key=value config file; flags take precedence")
        sub.add_argument("--outdir", default=".", help="output directory")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes: count2d for the (rung, "
                         "parity) sectors; bands, mourre, budget and localize "
                         "for the k-sweep; ho for the band minimum beside the "
                         "precise pair solves; minima for the minima "
                         "(output never depends on it)")
    return parser


def _exit_for(exc):
    """Exit code of a package error; InvariantViolation is a NumericalError."""
    return EXIT_USAGE if isinstance(exc, ConfigurationError) else EXIT_RESOLUTION


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = effective_config(args.command, args)
        payload = DISPATCH[args.command](cfg, jobs=args.jobs)
    except (ConfigurationError, NumericalError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_for(exc)
    exc = payload.pop("_exc", None)
    extra_files = payload.pop("extra_files", {})
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{args.command}.{args.format}"
    text = render_csv(payload) if args.format == "csv" else render_json(payload)
    path.write_text(text)
    written = [str(path)]
    for name, content in extra_files.items():
        extra_path = outdir / name
        extra_path.write_text(content)
        written.append(str(extra_path))
    status = "PASS" if payload["pass"] and exc is None else "FAIL"
    print(f"{args.command}: {status}; wrote {', '.join(written)}")
    if exc is not None:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_for(exc)
    return EXIT_OK if payload["pass"] else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
