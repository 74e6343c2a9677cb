"""End-to-end checks of the command-line front end.

Each test drives ``magbarrier.cli.main`` with an argv list, then inspects
the exit code and the rendered CSV/JSON document.
"""

import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from magbarrier import asymptotics, bands, cli, counting, fiber, specfun
from magbarrier.errors import ConfigurationError, InvariantViolation, NumericalError

KAPPA_1 = 0.768183653380
E_1 = 0.590106125320
BETA_1 = 0.5855127449


def run(argv, outdir):
    return cli.main(argv + ["--outdir", str(outdir)])


def read_csv(path):
    """(config, columns, rows, summary, failed, passed) from a CSV report."""
    config, summary, rows, columns, failed, passed = {}, {}, [], None, None, None
    for line in path.read_text().splitlines():
        if line.startswith("# FAILED: "):
            failed = line[len("# FAILED: "):]
        elif line.startswith("# pass="):
            passed = line.split("=", 1)[1] == "true"
        elif line.startswith("# "):
            key, value = line[2:].split("=", 1)
            (summary if columns is not None else config)[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return config, columns, rows, summary, failed, passed


def test_bands_single_k_gives_oscillator_levels(tmp_path, monkeypatch):
    # the table prints energies only, so no solve asks LAPACK for vectors
    solve, asked = fiber.eigh_tridiagonal, []

    def spy(*args, **kwargs):
        asked.append(kwargs["eigvals_only"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fiber, "eigh_tridiagonal", spy)
    assert run(["bands", "--b", "1", "--kmin", "0", "--kmax", "0",
                "--nbands", "6"], tmp_path) == 0
    assert asked == [True] * 4      # two parities on two grids
    config, columns, rows, _, failed, passed = read_csv(tmp_path / "bands.csv")
    assert columns == ["omega"] and failed is None and passed
    assert config["refine"] == "true"   # the echo of the refined table
    for row, want in zip(rows, (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)):
        assert float(row[0]) == pytest.approx(want, rel=1e-6)


def test_bands_trace_carries_reference_parabola_and_plot(tmp_path):
    assert run(["bands", "--b", "1", "--kmin", "-2", "--kmax", "2",
                "--nbands", "3", "--samples", "11"], tmp_path) == 0
    _, columns, rows, summary, _, passed = read_csv(tmp_path / "bands.csv")
    assert passed and summary["monotonicity_violations"] == "0"
    k_col = columns.index("k")
    sq_col = columns.index("k_squared")
    for row in rows:
        assert float(row[sq_col]) == pytest.approx(float(row[k_col]) ** 2,
                                                   abs=1e-12)
    plot = (tmp_path / "bands_plot.dat").read_text()
    band_blocks = [l for l in plot.splitlines()
                   if l.startswith("# band ") and "(" in l]
    assert len(band_blocks) == 3
    assert "# reference parabola E = k^2" in plot
    data_lines = [l for l in plot.splitlines() if l and not l.startswith("#")]
    assert all(len(l.split()) == 2 for l in data_lines)


def test_malformed_flag_exits_with_usage(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["bands", "--bogus", "3"], tmp_path)
    assert info.value.code == 2


def test_minima_matches_frozen_first_minimum(tmp_path):
    assert run(["minima", "--b", "1", "--jmax", "1"], tmp_path) == 0
    _, columns, rows, _, _, passed = read_csv(tmp_path / "minima.csv")
    assert passed and len(rows) == 1
    row = dict(zip(columns, rows[0]))
    assert float(row["kappa"]) == pytest.approx(KAPPA_1, rel=1e-6)
    assert float(row["energy"]) == pytest.approx(E_1, rel=1e-6)
    assert float(row["beta"]) == pytest.approx(BETA_1, rel=1e-6)
    assert row["pass"] == "true"


def test_config_file_yields_to_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = 4\nnbands=2  # trailing comment\n")
    assert run(["bands", "--config", str(cfg), "--b", "1",
                "--kmin", "0", "--kmax", "0"], tmp_path) == 0
    config, _, rows, _, _, _ = read_csv(tmp_path / "bands.csv")
    assert config["b"] == "1"        # flag beats file
    assert config["nbands"] == "2"   # file beats default
    assert len(rows) == 2
    assert float(rows[0][0]) == pytest.approx(1.0, rel=1e-6)


TEXT_OPTIONS = [(command, name) for command, schema in cli.COMMANDS.items()
                for name, option in schema.items() if option.kind != "bool"]


def _refusal(argv, outdir, capsys):
    """(exit code, stderr lines) of a run that must write nothing."""
    code = run(argv, outdir)
    assert not outdir.exists() or list(outdir.iterdir()) == []
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command, name", TEXT_OPTIONS)
def test_bad_text_is_one_error_line_from_argv_or_config(tmp_path, capsys,
                                                        command, name):
    # argv and config values go through one converter, so the same text is
    # refused with the same line, naming the option, before any solve
    flag = f"--{name.replace('_', '-')}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = x\n")
    from_argv = _refusal([command, flag, "x"], tmp_path / "argv", capsys)
    from_file = _refusal([command, "--config", str(cfg)], tmp_path / "file",
                         capsys)
    assert from_argv == from_file
    code, lines = from_argv
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"error: {flag}: ")


@pytest.mark.parametrize("command, name", [
    (command, name) for command, schema in cli.COMMANDS.items()
    for name, option in schema.items() if option.kind == "bool"])
def test_config_bool_maybe_is_refused(tmp_path, capsys, command, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = maybe\n")
    flag = f"--{name.replace('_', '-')}"
    assert _refusal([command, "--config", str(cfg)], tmp_path / "out",
                    capsys) == (2, [f"error: {flag}: expected a boolean, "
                                    "got 'maybe'"])


# every value of a float or floats option that lies outside its domain
DOMAIN_PROBES = ("nan", "inf", "-inf", "0", "-1", "1", "2")


def _outside(option):
    """(id, text) of values outside an int, float or floats option's domain:
    an int at 0 and one past its maximum, a float at each DOMAIN_PROBES value
    outside its interval, and a floats list one value longer than its most."""
    if option.kind == "int":
        return [(probe, probe) for probe in ("0", str(option.domain[1] + 1))]
    probes = [(probe, probe) for probe in DOMAIN_PROBES
              if not option.domain[0] < float(probe) < option.domain[1]]
    if option.kind == "floats":
        inside = ",".join([repr(option.default[0])] * (option.most + 1))
        probes.append((f"{option.most + 1}-values", inside))
    return probes


OUTSIDE = [pytest.param(command, name, text, id=f"{command}-{name}-{probe}")
           for command, schema in cli.COMMANDS.items()
           for name, option in schema.items()
           if option.kind in ("int", "float", "floats")
           for probe, text in _outside(option)]


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, name, probe", OUTSIDE)
def test_value_outside_its_domain_is_one_error_line_before_any_solve(
        tmp_path, capsys, monkeypatch, command, name, probe, jobs):
    for module, solver in ((fiber, "eigenpairs"), (counting, "_sector_inertia"),
                           (counting, "count_1d")):
        monkeypatch.setattr(module, solver, _no_solve)
    flag = f"--{name.replace('_', '-')}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {probe}\n")
    from_argv = _refusal([command, f"{flag}={probe}", "--jobs", jobs],
                         tmp_path / "argv", capsys)
    from_file = _refusal([command, "--config", str(cfg), "--jobs", jobs],
                         tmp_path / "file", capsys)
    assert from_argv == from_file
    code, lines = from_argv
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"error: {flag}: ")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_line_shows_the_domain(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for option in cli.COMMANDS[command].values():
        if option.domain != cli.ANY:
            listed = f" (comma-separated, at most {option.most})" \
                if option.kind == "floats" else ""
            assert f"{option.help}{listed}, in {cli._interval(option)}" in text
    jobs = cli.RUN_OPTIONS["jobs"]
    assert f"{jobs.help}, in {cli._interval(jobs)}" in text


@pytest.mark.parametrize("argv, line", [
    (["count2d", "--hy", "0"], "error: --hy: must lie in (0, inf), got 0.0"),
    # the first k is in the wedge; the second is refused before it is solved
    (["airy", "--ks=-15,5"], "error: --ks: must lie in (-inf, 0), got 5.0"),
])
def test_refusals_come_before_any_solve_or_trace(tmp_path, capsys, monkeypatch,
                                                 argv, line):
    for module, solver in ((fiber, "eigenpairs"), (bands, "find_minimum"),
                           (bands, "trace")):
        monkeypatch.setattr(module, solver, _no_solve)
    assert _refusal(argv, tmp_path / "out", capsys) == (2, [line])


def test_config_run_writes_the_argv_run_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambdas = 1e-2,3e-3\nh = 0.04\n")
    assert run(["count1d", "--config", str(cfg)], tmp_path / "file") == 0
    assert run(["count1d", "--lambdas", "1e-2,3e-3", "--h", "0.04"],
               tmp_path / "argv") == 0
    assert (tmp_path / "file" / "count1d.csv").read_bytes() \
        == (tmp_path / "argv" / "count1d.csv").read_bytes()


def test_outdir_that_is_not_a_directory_is_refused_before_the_solve(
        tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("a count ran")

    monkeypatch.setattr(counting, "count_1d", boom)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for outdir in (blocker, blocker / "sub" / "dir"):
        assert cli.main(["count1d", "--lambdas", "1e-2,3e-3",
                         "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --outdir: {blocker} is not a directory"]
    assert blocker.read_text() == "kept\n"


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert run(["bands", "--config", str(cfg)], tmp_path) == 2


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    # a byte that is not UTF-8 used to leave as a UnicodeDecodeError traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"lambdas = 1e-2\xff\n")
    code, lines = _refusal(["count1d", "--config", str(cfg)], tmp_path / "out",
                           capsys)
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("error: cannot read config file: ")


def test_reruns_are_byte_identical(tmp_path):
    for fmt in ("csv", "json"):
        texts = []
        for sub in ("one", "two"):
            outdir = tmp_path / f"{fmt}_{sub}"
            assert run(["count1d", "--lambdas", "1e-2,3e-3",
                        "--format", fmt], outdir) == 0
            texts.append((outdir / f"count1d.{fmt}").read_text())
        assert texts[0] == texts[1]


def test_count1d_renders_fit_beside_closed_form(tmp_path):
    assert run(["count1d", "--alpha", "1", "--ell", "1", "--m", "1",
                "--lambdas", "1e-3,3e-4,1e-4"], tmp_path) == 0
    _, columns, rows, summary, failed, passed = read_csv(
        tmp_path / "count1d.csv")
    assert passed and failed is None
    assert [int(r[columns.index("count")]) for r in rows] == [31, 57, 99]
    assert float(summary["closed_form_constant"]) == pytest.approx(1.0)
    assert float(summary["fitted_exponent"]) == pytest.approx(0.5, abs=0.1)
    assert float(summary["expected_exponent"]) == 0.5


def test_count1d_flushes_partial_rows_on_failure(tmp_path):
    # the second rung's line grid is past the row budget
    assert run(["count1d", "--lambdas", "1e-2,1e-9"], tmp_path) == 3
    _, columns, rows, _, failed, passed = read_csv(tmp_path / "count1d.csv")
    assert failed is not None and not passed
    assert len(rows) == 1 and int(rows[0][columns.index("count")]) == 9


def test_json_document_parses_with_config_echo(tmp_path):
    assert run(["minima", "--b", "1", "--jmax", "1", "--format", "json"],
               tmp_path) == 0
    doc = json.loads((tmp_path / "minima.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["config"]["b"] == 1 and doc["config"]["jmax"] == 1
    assert doc["pass"] is True
    kappa = doc["rows"][0][doc["columns"].index("kappa")]
    assert isinstance(kappa, float)
    assert kappa == pytest.approx(KAPPA_1, rel=1e-6)


def test_mourre_window_exits_clean(tmp_path):
    assert run(["mourre", "--b", "1", "--n", "1", "--E", "mid"],
               tmp_path) == 0
    config, columns, rows, summary, _, passed = read_csv(
        tmp_path / "mourre.csv")
    assert passed and len(rows) == 2          # bands 1..2n reach the window
    assert float(summary["delta0"]) > 0.0
    assert float(summary["c_n"]) > 0.0
    assert config["E_spec"] == "mid"
    left = columns.index("k_left")
    right = columns.index("k_right")
    assert all(float(r[left]) < float(r[right]) for r in rows)


def test_budget_reports_margin_below_half(tmp_path):
    assert run(["budget", "--b", "1", "--n", "1", "--E", "mid"],
               tmp_path) == 0
    _, columns, rows, summary, _, passed = read_csv(tmp_path / "budget.csv")
    assert passed and len(rows) == 1
    row = dict(zip(columns, rows[0]))
    assert float(row["a_star"]) > 0.0 and float(row["q_star"]) > 0.0
    assert float(row["F"]) <= 0.5
    assert float(summary["c_n"]) > 0.0


def test_localize_sweep_passes_throughout_window(tmp_path):
    assert run(["localize", "--b", "1", "--n", "1", "--samples", "3"],
               tmp_path) == 0
    _, columns, rows, summary, _, passed = read_csv(tmp_path / "localize.csv")
    assert passed and len(rows) == 6          # 2 bands x 3 samples
    ratio = columns.index("max_ratio")
    assert all(0.0 < float(r[ratio]) < 1.0 for r in rows)
    assert float(summary["worst_ratio"]) < 1.0


def test_ho_splitting_fit_decays_cleanly(tmp_path):
    assert run(["ho", "--b", "1", "--j", "1", "--kmin", "3", "--kmax", "6",
                "--samples", "5"], tmp_path) == 0
    _, columns, rows, summary, _, passed = read_csv(tmp_path / "ho.csv")
    assert passed
    assert float(summary["rate"]) <= -0.20
    assert float(summary["r2"]) >= 0.99
    assert int(summary["n_retained"]) >= 3
    kept = [r for r in rows if r[columns.index("retained")] == "true"]
    split = columns.index("splitting")
    assert all(float(r[split]) > 0.0 for r in kept)


def test_airy_checks_pass_deep_in_the_wedge(tmp_path):
    assert run(["airy", "--b", "1", "--ks=-15,-20", "--jmax", "2"],
               tmp_path) == 0
    _, columns, rows, _, _, passed = read_csv(tmp_path / "airy.csv")
    assert passed and len(rows) == 4
    err = columns.index("measured_error")
    bound = columns.index("bound")
    assert all(float(r[err]) < float(r[bound]) for r in rows)


def test_count2d_parallel_matches_ladder(tmp_path):
    assert run(["count2d", "--b", "1", "--jobs", "2"], tmp_path) == 0
    _, columns, rows, summary, failed, passed = read_csv(
        tmp_path / "count2d.csv")
    assert passed and failed is None
    counts = [int(r[columns.index("count")]) for r in rows]
    assert counts == sorted(counts) and counts[0] >= 1
    assert float(summary["threshold"]) == pytest.approx(E_1, abs=0.05)
    assert float(summary["closed_form_constant"]) == pytest.approx(0.807, abs=0.01)
    assert abs(float(summary["fitted_exponent"]) - 0.5) < 0.25


def test_count2d_resource_cap_exits_three(tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "MAX_UNKNOWNS_2D", 100)
    assert run(["count2d"], tmp_path) == 3
    config, _, rows, _, failed, passed = read_csv(tmp_path / "count2d.csv")
    assert failed is not None and not passed and rows == []
    assert "budget of 100 unknowns" in failed
    assert config["max_unknowns"] == "100"     # the budget the run used


def test_count2d_stability_flags_a_drift_beyond_one(tmp_path, monkeypatch):
    argv = ["count2d", "--hy", "0.8", "--lambdas", "0.3,0.14,0.066,0.03",
            "--check-stability"]
    assert run(argv, tmp_path) == 0
    _, _, _, summary, _, passed = read_csv(tmp_path / "count2d.csv")
    assert passed and summary["stable"] == "true"
    base = int(summary["stability_base"])
    assert int(summary["stability_refined"]) == base

    count_2d = counting.count_2d

    def drifted(b, V, lambdas, spec, **kwargs):
        counts, meta = count_2d(b, V, lambdas, spec=spec, **kwargs)
        if spec.hy < 0.8:   # the refined recount
            counts = [n + 2 for n in counts]
        return counts, meta

    monkeypatch.setattr(counting, "count_2d", drifted)
    assert run(argv, tmp_path) == 1
    _, _, rows, summary, failed, passed = read_csv(tmp_path / "count2d.csv")
    assert summary["stable"] == "false" and not passed and failed is None
    assert int(summary["stability_refined"]) == base + 2
    assert int(rows[0][1]) == base


@pytest.mark.parametrize("argv", [
    ["count2d", "--alpha", "0.2", "--hy", "0.8"],
    ["count2d", "--alpha", "0.001"],
    ["count1d", "--alpha", "0.1"],
    ["count1d", "--alpha", "0.001"],
    # under the unknowns budget, but each dense Schur block is nx x nx:
    # nx = 14828 (3.5 GB a block) and nx = 1482843 at ny = 1
    ["count2d", "--b", "1e-4"],
    ["count2d", "--b", "1e-8"],
])
def test_grid_past_its_budget_exits_three_before_allocating(tmp_path, monkeypatch,
                                                            capsys, argv):
    def boom(*args, **kwargs):
        raise AssertionError("a grid array was allocated")

    monkeypatch.setattr(counting, "_line_nodes", boom)
    monkeypatch.setattr(counting, "discrete_threshold", boom)
    assert run(argv, tmp_path) == 3
    err = capsys.readouterr().err
    assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1
    _, _, rows, _, failed, passed = read_csv(tmp_path / f"{argv[0]}.csv")
    assert failed.startswith("NumericalError") and not passed and rows == []


@pytest.mark.parametrize("argv, message", [
    (["count2d", "--hx", "1e-300"], "error: 7.41e+300 x-steps exceed the cap of 2048"),
    (["count2d", "--hy", "1e300"], "error: y-step hy=1e+300 is too coarse"),
    # ny of 304 and 301 digits against the unknowns budget, printed to 3
    (["count2d", "--amplitude", "1e300"], "error: grid 295 x 1.57e+303"),
    (["count2d", "--lambdas", "1e-300,1e-200,1e-100,1e-50"],
     "error: grid 295 x 9.26e+300"),
])
def test_count2d_grid_refusal_is_one_short_line(tmp_path, capsys, argv, message):
    assert run(argv, tmp_path) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(message) and len(line) < 100


@pytest.mark.parametrize("argv, message", [
    # the budget names the box that is built: 3 turning points of 1000
    (["count1d", "--h", "1e-300"],
     "error: line grid of 6e+303 rows at half-width 3000 exceeds"),
])
def test_count1d_refusal_is_one_short_line(tmp_path, capsys, argv, message):
    assert run(argv, tmp_path) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(message) and len(line) < 100
    _, _, rows, _, failed, passed = read_csv(tmp_path / "count1d.csv")
    assert failed.startswith("NumericalError") and not passed and rows == []


def test_count1d_box_reaches_past_a_slowly_decaying_level(tmp_path):
    # a heavy mass at a shallow gap: the level near -lam decays over
    # m/sqrt(lam), past 3 turning points (a box of 10 at lam = 0.3 counts 0
    # where the line holds 1); DECAY_LENGTHS of them certify 1, 1, which fit
    # nothing
    assert run(["count1d", "--m", "3", "--lambdas", "0.3,0.1"], tmp_path) == 1
    _, columns, rows, summary, failed, passed = read_csv(tmp_path / "count1d.csv")
    assert failed is None and not passed and summary["fitted_exponent"] == "None"
    assert [int(r[columns.index("count")]) for r in rows] == [1, 1]


def test_count1d_constant_past_the_float_range_exits_three(tmp_path, capsys):
    assert run(["count1d", "--alpha", "0.001", "--ell", "3"], tmp_path) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: counting constant overflows at ell=3, alpha=0.001, m=1"]
    assert not (tmp_path / "count1d.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--b", "1e150", "--kmin", "0", "--kmax", "0"],
    ["bands", "--b", "1e150", "--kmin=-1", "--kmax", "1", "--samples", "3",
     "--jobs", "2"],
    ["minima", "--b", "1e300"],
    ["ho", "--b", "1e300"],
    ["airy", "--b", "1e300", "--ks=-15", "--jmax", "1"],
    # k past the float range of the precise pair solve
    ["ho", "--kmin", "1e300"],
    ["ho", "--kmax", "1e300"],
    ["ho", "--kmin", "1e200", "--kmax", "1e201"],
    # LAPACK's square of the off-diagonal 1/h^2 underflows: every band would
    # print one value
    ["bands", "--b", "1e-160", "--kmin", "0", "--kmax", "0"],
    # a wedge this deep sizes a grid of 4e10 rows
    ["airy", "--ks=-1e5", "--jmax", "1"],
    # k^2 absorbs the Airy term: neighbouring predictions coincide
    ["airy", "--ks=-1e13", "--jmax", "1"],
    ["airy", "--ks=-1e150", "--jmax", "1"],
    # k^2 overflows, and b^(4/3) underflows to a zero error bound
    ["airy", "--ks=-1e200", "--jmax", "1"],
    ["airy", "--b", "1e-300", "--ks=-15", "--jmax", "1"],
    # six decay lengths m/sqrt(lam) of 3.2e201 take the box past the row
    # budget (its 2m^2/h^2 would overflow too), or m^2/h^2 underflows
    ["count1d", "--m", "1e200"],
    ["count1d", "--m", "1e-200"],
    # h sqrt(max Q) = 0.05 against m = 1e-3: the grid, not the well, sets
    # the counts
    ["count1d", "--m", "1e-3"],
    # 7.4e300 x-steps against the cap of 2048, refused before rounding
    ["count2d", "--hx", "1e-300"],
    # (1/hy^2)^2 underflows, and with it the slices' y-coupling
    ["count2d", "--hy", "1e300"],
    # hy^2 underflows to 0: ~6e302 y-steps against the unknowns budget
    ["count2d", "--hy", "1e-300"],
    # a y-extent of ~1e303 or ~1e301 steps against the unknowns budget
    ["count2d", "--amplitude", "1e300"],
    ["count2d", "--lambdas", "1e-300,1e-200,1e-100,1e-50"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_field_past_the_solver_range_exits_three_without_traceback(tmp_path,
                                                                   capfd, argv):
    # LAPACK's tridiagonal solver stops converging, or a square or power
    # leaves the float range, or the fiber grid is refused before it is built
    assert run(argv, tmp_path) == 3
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv, code, message", [
    # the schema's domain, before the pool opens and before any precise box
    # is sized from b
    (["ho", "--b", "0"], 2, "error: --b: must lie in (0, inf), got 0.0"),
    (["ho", "--b", "-1"], 2, "error: --b: must lie in (0, inf), got -1.0"),
    # the entry check, which solves kappa_1 for samples short of the bound
    # sqrt(b) + sqrt(b) = 2, comes before the float-range refusal of the
    # samples
    (["ho", "--kmin", "0.5", "--kmax", "1e200"], 2,
     "error: samples must start past kappa_1 + b^(1/2) = 1.76818"),
    (["ho", "--kmin", "1e200", "--kmax", "1e201"], 3,
     "error: k=1e+200 leaves the float range of the precise solve at b=1"),
    # the band minimum itself fails, in the parent at every --jobs
    (["ho", "--b", "1e300"], 3, "error: fiber eigensolve failed at b=1e+300"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ho_refusals_keep_their_order_at_every_jobs(tmp_path, capfd, argv, code,
                                                   message, jobs):
    assert run(argv + ["--jobs", jobs], tmp_path) == code
    lines = capfd.readouterr().err.splitlines()   # workers' stderr included
    assert len(lines) == 1 and lines[0].startswith(message)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "ho.csv").exists()


def test_refused_ho_entry_opens_no_pool(tmp_path, capfd, monkeypatch):
    solved = tmp_path / "solved"

    def boom(*args, **kwargs):
        solved.touch()      # seen from a worker process too
        raise AssertionError("a precise level was solved")

    # set before any fork, so a worker would inherit it; the entry check
    # refuses k = -1 before a precise unit is queued
    monkeypatch.setattr(asymptotics, "_precise_level", boom)
    outdir = tmp_path / "out"
    assert run(["ho", "--kmin=-1", "--kmax", "6", "--jobs", "2"], outdir) == 2
    lines = capfd.readouterr().err.splitlines()   # workers' stderr included
    assert lines == ["error: samples must start past kappa_1 + b^(1/2) = 1.76818"]
    assert not solved.exists()
    assert multiprocessing.active_children() == []


def test_minima_on_workers_is_byte_identical_to_serial(tmp_path):
    texts = []
    for jobs in ("1", "2"):
        outdir = tmp_path / f"jobs{jobs}"
        assert run(["minima", "--b", "1", "--jmax", "3", "--format", "json",
                    "--jobs", jobs], outdir) == 0
        texts.append((outdir / "minima.json").read_text())
    assert texts[0] == texts[1]
    assert multiprocessing.active_children() == []


def test_minima_worker_error_is_the_first_in_ordinal_order(tmp_path, monkeypatch,
                                                          capfd):
    # every root search stops, each on its own last value; set before the
    # pool forks, so the workers inherit it
    monkeypatch.setattr(bands, "BRENTQ_MAX_ITERATIONS", 2)
    errors = []
    for jobs in ("1", "2"):
        assert run(["minima", "--jmax", "3", "--jobs", jobs], tmp_path) == 3
        errors.append(capfd.readouterr().err.splitlines())
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert errors[0][0].startswith("error: root search did not converge")
    assert not (tmp_path / "minima.csv").exists()


def test_root_search_that_does_not_converge_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bands, "BRENTQ_MAX_ITERATIONS", 2)
    assert run(["minima", "--b", "1", "--jmax", "1"], tmp_path) == 3
    lines = capsys.readouterr().err.splitlines()   # no traceback, no other line
    assert len(lines) == 1
    assert lines[0].startswith("error: root search did not converge in 2 iterations")


def test_bad_jobs_value_is_usage(tmp_path, capsys):
    # --jobs and --format are read by the schema's converter: a bad value
    # returns 2 with one line naming the option, and writes nothing
    for argv, line in (
            (["--jobs", "x"], "error: --jobs: expected an integer, got 'x'"),
            (["--jobs", "1.5"], "error: --jobs: expected an integer, got '1.5'"),
            (["--jobs", "0"], "error: --jobs: must lie in [1, inf), got 0"),
            (["--format", "xml"], "error: --format: expected csv or json, got 'xml'")):
        assert _refusal(["count1d", *argv], tmp_path / "out", capsys) == (2, [line])
    # a config file still takes only the subcommand's schema keys
    cfg = tmp_path / "run.cfg"
    for key in ("jobs = 2", "format = json"):
        cfg.write_text(key + "\n")
        assert _refusal(["count1d", "--config", str(cfg)], tmp_path / "out",
                        capsys) == (2, [f"error: unknown config keys for count1d: "
                                        f"{key.split()[0]}"])


def _no_grid(*args, **kwargs):
    raise AssertionError("a k-grid was allocated")


@pytest.mark.parametrize("argv, line", [
    # counts that passed the old row budget and ran for minutes
    (["ho", "--samples", "20000000"],
     "error: --samples: must lie in [1, 5000], got 20000000"),
    (["localize", "--samples", "10000000"],
     "error: --samples: must lie in [1, 75000], got 10000000"),
    (["bands", "--samples", "2000000"],
     "error: --samples: must lie in [3, 12500], got 2000000"),
    (["minima", "--jmax", "1000"], "error: --jmax: must lie in [1, 80], got 1000"),
    (["mourre", "--n", "1000"], "error: --n: must lie in [1, 64], got 1000"),
    # the first values past the window ordinals that certify, and band 128,
    # whose neighbour needs the 65th Airy zero of a table of 64
    (["mourre", "--n", "65"], "error: --n: must lie in [1, 64], got 65"),
    (["localize", "--n", "15"], "error: --n: must lie in [1, 14], got 15"),
    (["airy", "--jmax", "128"], "error: --jmax: must lie in [1, 127], got 128"),
    (["ho", "--j", "1000"], "error: --j: must lie in [1, 250], got 1000"),
    (["count2d", "--lambdas", ",".join(["0.03"] * 1000)],
     "error: --lambdas: takes at most 500 values, got 1000"),
])
def test_counts_past_their_maximum_exit_two_before_any_grid(
        tmp_path, capsys, monkeypatch, argv, line):
    for module, solver in ((np, "linspace"), (bands, "trace"),
                           (bands, "find_minimum"), (fiber, "eigenpairs")):
        monkeypatch.setattr(module, solver, _no_grid)
    assert _refusal(argv, tmp_path / "out", capsys) == (2, [line])


def test_localize_sweep_at_its_maximum_reaches_the_trace(tmp_path, monkeypatch):
    # the largest sweep the schema takes, samples x 2n at its maxima
    monkeypatch.setattr(bands, "trace", _no_grid)
    top = cli.COMMANDS["localize"]
    with pytest.raises(AssertionError, match="k-grid"):
        run(["localize", "--samples", str(top["samples"].domain[1]),
             "--n", str(top["n"].domain[1])], tmp_path)


@pytest.mark.parametrize("error, code", [
    (ConfigurationError, 2), (NumericalError, 3), (InvariantViolation, 3)])
def test_error_types_map_to_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    def boom(cfg, jobs=1):
        raise error("planted")

    monkeypatch.setitem(cli.DISPATCH, "count1d", boom)
    assert run(["count1d"], tmp_path) == code
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: planted"]


# beside the OUTSIDE table: bad rungs among good ones, and inputs that a
# command refuses itself
@pytest.mark.parametrize("argv", [
    ["count1d", "--lambdas", "1e-3,nan"],
    ["ho", "--j", "0"],
    # seven copies of one k: a decay fit through a single point
    ["ho", "--kmin", "3", "--kmax", "3"],
    ["mourre", "--n", "0"],
    ["bands", "--nbands", "-1"],
    ["count2d", "--lambdas", "0.3,0.1,0.03,0"],
    ["count2d", "--lambdas=0.3,0.1,0.03,-0.01"],
    # one x-step on the half-width at b = 1; the fiber stencil needs two
    ["count2d", "--hx", "5"],
    ["count2d", "--hx", "10"],
    ["count2d", "--alpha", "1e300"],
    ["count2d", "--lambdas", "0.3,0.3,0.066,0.03"],
    ["count1d", "--lambdas", "1e-3,1e-3,1e-4"],
])
def test_bad_input_is_a_usage_error_without_traceback(tmp_path, capsys, argv):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1


def test_count1d_repeated_rung_is_refused_before_any_count(tmp_path,
                                                           monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("a rung was counted")

    monkeypatch.setattr(counting, "count_1d", boom)
    assert run(["count1d", "--lambdas", "1e-3,1e-3,1e-4"], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: lambdas must be distinct; a rung is repeated"]
    assert not (tmp_path / "count1d.csv").exists()


def test_count2d_repeated_rung_is_refused_before_any_solve(tmp_path,
                                                           monkeypatch):
    # refused before the band minimum, the first solve, and before any file
    def boom(*args, **kwargs):
        raise AssertionError("a band minimum was solved")

    monkeypatch.setattr(bands, "find_minimum", boom)
    assert run(["count2d", "--b", "1", "--hy", "0.8",
                "--lambdas", "0.3,0.3,0.066,0.03"], tmp_path) == 2
    assert not (tmp_path / "count2d.csv").exists()


def _worker_refusal(tmp_path, capfd, argv):
    """Exit code of a bands run whose first k-point a worker refuses; the
    one stderr line, without a traceback, is checked against its prefix."""
    code = run(["bands", *argv, "--samples", "5", "--jobs", "2"], tmp_path)
    lines = capfd.readouterr().err.splitlines()   # no traceback, no other line
    assert len(lines) == 1
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "bands.csv").exists()
    return code, lines[0]


def test_worker_error_is_a_usage_error_without_traceback(tmp_path, capfd,
                                                        monkeypatch):
    # the k-sweep runs on two workers, which inherit a planted refusal
    def refuse(*args, **kwargs):
        raise ConfigurationError("planted")

    monkeypatch.setattr(fiber, "first_levels", refuse)
    code, line = _worker_refusal(tmp_path, capfd, ["--kmin=-1", "--kmax", "1"])
    assert code == 2 and line == "error: planted"


def test_worker_budget_refusal_is_a_resolution_error(tmp_path, capfd):
    # k = -1e5 sizes a fiber grid of 8.89e10 rows, past the row budget
    code, line = _worker_refusal(tmp_path, capfd, ["--kmin=-1e5", "--kmax", "0"])
    assert code == 3 and line.startswith(
        "error: fiber grid at b=1, k=-100000 needs 8.89e+10 rows")


def test_bands_past_the_eigenvector_budget_exit_three_before_a_stencil(
        tmp_path, monkeypatch, capsys):
    # the schema's 300 bands, 150 levels per parity, at k = -40, where the
    # wall needs a 75000-point grid: 2.25e7 rows x levels of dstebz
    # bisection, as this energies-only path builds no vector block
    def boom(*args, **kwargs):
        raise AssertionError("a stencil was built")

    monkeypatch.setattr(fiber, "stencil", boom)
    assert run(["bands", "--b", "1", "--kmin=-40", "--kmax=-40",
                "--nbands", "300"], tmp_path) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: fiber grid at b=1, k=-40 needs 1.5e+05 rows x 150 level(s), "
        "past the budget of 20000000"]


@pytest.mark.parametrize("command", ["mourre", "budget", "localize"])
@pytest.mark.parametrize("energy, message", [
    ("nan", "error: --E: must be finite, got nan"),
    ("inf", "error: --E: must be finite, got inf"),
    ("foo", "error: --E: expected a number or 'mid', got 'foo'"),
])
def test_window_energy_is_refused_before_the_trace(tmp_path, monkeypatch,
                                                   capsys, command, energy,
                                                   message):
    def boom(*args, **kwargs):
        raise AssertionError("the bands were traced")

    monkeypatch.setattr(bands, "trace", boom)
    assert run([command, "--E", energy], tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    # a parabola through three samples dips below zero
    ["mourre", "--samples", "3"],
    # band 2n+1's lowest sample is the right end of the trace
    ["mourre", "--n", "5", "--samples", "4"],
    ["budget", "--n", "5", "--samples", "4"],
    ["localize", "--n", "8", "--trace-samples", "5"],
])
def test_window_the_trace_cannot_certify_is_a_usage_error(tmp_path, capsys,
                                                          argv):
    assert run(argv, tmp_path) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: band ")
    assert lines[0].endswith("trace more samples")
    assert list(tmp_path.iterdir()) == []


def test_window_at_four_samples_is_a_resolution_refusal(tmp_path, capsys):
    # band 1's lowest of four samples, k = 2.67, lies right of kappa_1: its
    # branch ends at the last sample that still falls, and the table is too
    # coarse for a window, not a band with a rising velocity
    assert run(["mourre", "--samples", "4"], tmp_path) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "nonpositive band velocity" not in lines[0]
    assert lines[0].startswith("error: no positive delta0 at this table resolution")
    assert list(tmp_path.iterdir()) == []


# options a command no longer takes, as (command, name, config value, argv
# spellings): the window trace follows from n and b, a band table is always
# refined, a count1d count always certified by its bracket, and the 2D grid
# budget is counting.MAX_UNKNOWNS_2D
RETIRED = [
    *((command, name, value, ([f"--{name}={value}"],))
      for command in ("mourre", "budget", "localize")
      for name, value in (("kmin", "-4"), ("kmax", "6"), ("nbands", "5"))),
    ("bands", "refine", "yes", (["--refine"], ["--no-refine"])),
    ("count1d", "verify", "yes", (["--verify"], ["--no-verify"])),
    ("count2d", "max_unknowns", "5", (["--max-unknowns", "5"],)),
]


def _spy_no_solve(monkeypatch):
    for module, solver in ((bands, "trace"), (fiber, "eigenpairs"),
                           (counting, "count_1d"), (counting, "_sector_inertia")):
        monkeypatch.setattr(module, solver, _no_solve)


@pytest.mark.parametrize("command, argv", [
    pytest.param(command, argv, id=f"{command}-{argv[0][2:].split('=')[0]}")
    for command, _, _, spellings in RETIRED for argv in spellings])
def test_retired_option_on_argv_is_refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, argv):
    _spy_no_solve(monkeypatch)
    with pytest.raises(SystemExit) as info:
        run([command, *argv], tmp_path / "out")
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"magbarrier: error: unrecognized arguments: {' '.join(argv)}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name, value", [
    pytest.param(command, name, value, id=f"{command}-{name}")
    for command, name, value, _ in RETIRED])
def test_retired_option_in_a_config_is_refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, name, value):
    _spy_no_solve(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    assert _refusal([command, "--config", str(cfg)], tmp_path / "out",
                    capsys) == (2, [f"error: unknown config keys for "
                                    f"{command}: {name}"])


@pytest.mark.parametrize("n", range(1, cli.COMMANDS["mourre"]["n"].domain[1] + 1))
def test_window_trace_follows_from_n_and_b(n):
    # every n the window commands accept, at b = 1; the trace scales as
    # sqrt(b), and the property test below draws b
    kmin, kmax, nbands = cli._window_trace(n, 1.0)
    r = math.sqrt(2 * n + 1)
    assert kmin <= -r and kmax >= r + 0.5 and nbands >= max(2 * n + 1, 5)
    assert cli._window_trace(n, 2.25) == (1.5 * kmin, 1.5 * kmax, nbands)
    # band 1, and so every band, lies above (2n+1) b at the left end
    omega_1 = fiber.refined([pair.omega
                             for pair in fiber.band(1.0, kmin, 1, refine=True)])
    assert omega_1 > 2 * n + 1
    # n <= 7 keeps the trace [-4 sqrt(b), 6 sqrt(b)] of five bands or more
    if n <= 7:
        assert (kmin, kmax) == (-4.0, 6.0)
    else:
        assert kmin < -4.0


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(*cli.COMMANDS["mourre"]["n"].domain), st.floats(0.25, 4.0))
def test_every_band_starts_above_the_window(n, b):
    # omega_j(k) > k^2 for k <= 0, and kmin^2 >= (2n+1) b, past the window's
    # ceiling: so bands 1..2n cross E inside the trace
    kmin, _, _ = cli._window_trace(n, b)
    omega_1 = fiber.refined([pair.omega
                             for pair in fiber.band(b, kmin, 1, refine=True)])
    assert omega_1 > (2 * n + 1) * b


def test_window_past_the_old_trace_passes(tmp_path):
    # band 1 crosses E = 21.83 at k = -4.2, left of the old trace's -4
    assert run(["mourre", "--n", "11", "--samples", "41", "--jobs", "2"],
               tmp_path) == 0
    config, _, rows, _, _, passed = read_csv(tmp_path / "mourre.csv")
    assert passed and len(rows) == 22
    assert float(config["kmin"]) == pytest.approx(-math.sqrt(23.0), rel=1e-11)


def test_airy_bands_reach_the_last_tabulated_zero():
    # band j's neighbour j + 1 takes zero ceil((j + 1) / 2) of its parity
    top = 2 * specfun.AIRY_ZERO_MAX_J - 1
    args = cli.build_parser().parse_args(["airy", "--jmax", str(top)])
    assert cli.effective_config("airy", args)["jmax"] == top
    spacing = asymptotics._neighbor_spacing
    assert spacing(asymptotics.airy_prediction(1.0, -15.0, top)) > 0.0
    with pytest.raises(ConfigurationError, match="index 65 exceeds capability 64"):
        spacing(asymptotics.airy_prediction(1.0, -15.0, top + 1))


@pytest.mark.xfail(strict=True, reason="at an odd band count the even sector's "
                   "box holds one more level than the odd one's, so a "
                   "degenerate pair's refined energies differ by more than "
                   "merge_parities' tolerance")
def test_odd_band_count_interleaves_at_a_degenerate_pair(tmp_path):
    # at 36 bands the run passes
    k = "7.2135021115906435"
    assert run(["bands", "--b", "1", "--kmin", k, "--kmax", k,
                "--nbands", "35"], tmp_path) == 0


@pytest.mark.parametrize("k, nbands", [("4.25", "61"), ("5", "61"),
                                       ("4.25", "81")])
def test_many_levels_interleave_on_the_energies_printed(tmp_path, k, nbands):
    # the parities sit on boxes sized for 31 and 30 (41 and 40) levels, so
    # their unrefined O(h^2) errors differ by more than the splitting; the
    # refined energies, which the table prints, are in order
    assert run(["bands", "--b", "1", "--kmin", k, "--kmax", k,
                "--nbands", nbands], tmp_path) == 0
    _, columns, rows, _, _, passed = read_csv(tmp_path / "bands.csv")
    omegas = [float(row[0]) for row in rows]
    assert passed and columns == ["omega"] and len(rows) == int(nbands)
    assert omegas == sorted(omegas)


def test_bands_solve_deep_in_the_wedge(tmp_path):
    # k / sqrt(b) = -40 needs a grid past the default; bands sizes it
    assert run(["bands", "--b", "1", "--kmin", "-40", "--kmax", "-30",
                "--nbands", "2"], tmp_path) == 0


@pytest.mark.parametrize("argv", [
    ["airy", "--jmax", "0"],
    ["localize", "--samples", "0", "--trace-samples", "41"],
    ["bands", "--samples", "2"],
])
def test_check_with_nothing_to_check_is_refused(tmp_path, argv):
    # each of these used to exit 0 with "# pass=true" after checking nothing
    assert run(argv, tmp_path) == 2
    assert not (tmp_path / f"{argv[0]}.csv").exists()


def test_count1d_ladder_with_nothing_to_fit_fails(tmp_path):
    # every count is 0, so no exponent is fitted; this used to exit 0
    assert run(["count1d", "--lambdas", "10,20,30"], tmp_path) == 1
    _, _, rows, summary, failed, passed = read_csv(tmp_path / "count1d.csv")
    assert not passed and failed is None
    assert [row[1] for row in rows] == ["0", "0", "0"]
    assert summary["fitted_exponent"] == "None"


def test_count2d_ladder_counted_to_zeros_fails(tmp_path, capsys):
    # the ladder passes the pre-sweep shape check, but the sweep leaves too
    # few nonzero counts to fit; this used to exit 2 as a usage error
    argv = ["count2d", "--b", "2", "--hy", "0.8", "--lambdas",
            "0.6,0.28,0.13,0.06"]
    assert run(argv, tmp_path) == 1
    assert "error:" not in capsys.readouterr().err
    _, _, rows, summary, failed, passed = read_csv(tmp_path / "count2d.csv")
    assert not passed and failed is None
    assert [row[1] for row in rows] == ["0", "1", "1", "2"]
    assert summary["fitted_exponent"] == "None"
    assert summary["prefactor_ratio"] == "None"


@pytest.mark.parametrize("argv", [
    ["count1d", "--h", "1e300"],
    ["count1d", "--ell", "0.03", "--lambdas", "1e-3,9.9e-4,9.8e-4"],
])
def test_count1d_flat_ladder_fails(tmp_path, capsys, argv):
    # every count is 1: the nonzero counts have no slope, so nothing is
    # fitted; these used to pass with fitted_exponent=-0
    assert run(argv, tmp_path) == 1
    assert "error:" not in capsys.readouterr().err
    _, _, rows, summary, failed, passed = read_csv(tmp_path / "count1d.csv")
    assert not passed and failed is None
    assert [row[1] for row in rows] == ["1", "1", "1"]
    assert summary["fitted_exponent"] == summary["fitted_prefactor"] == "None"


def test_count2d_flat_ladder_fails_with_its_rows(tmp_path, capsys):
    # one eigenvalue on every rung of the default ladder; this used to exit 3
    # as a "degenerate curve" and drop the counted rows
    assert run(["count2d", "--alpha", "1.99"], tmp_path) == 1
    assert "error:" not in capsys.readouterr().err
    _, _, rows, summary, failed, passed = read_csv(tmp_path / "count2d.csv")
    assert not passed and failed is None
    assert [row[1] for row in rows] == ["1", "1", "1", "1"]
    assert summary["fitted_exponent"] == summary["fitted_prefactor"] == "None"
    assert summary["exponent_gap"] == summary["prefactor_ratio"] == "None"


def test_short_ladder_is_refused_before_any_sweep(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("a solve ran")

    # the ladder is refused before the band minimum is even located
    monkeypatch.setattr(counting, "_sector_inertia", boom)
    monkeypatch.setattr(counting, "discrete_threshold", boom)
    monkeypatch.setattr(bands, "find_minimum", boom)
    assert run(["count2d", "--lambdas", "0.3,0.1"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: need at least 4 lambdas with nonzero counts"]
    assert run(["count2d", "--lambdas", "0.3,0.2,0.1,0.05"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: lambda ladder must span at least one decade"]
    assert not (tmp_path / "count2d.csv").exists()


ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the test process has already imported SciPy's
# oracles. Prints the heavy SciPy subpackages loaded after `import
# magbarrier.cli`, then after the golden runs (at --jobs 1, so in this
# process) of the commands that never need them.
FOOTPRINT_CHILD = """
import sys, tempfile
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.integrate")
def loaded():
    return "loaded: " + " ".join(name for name in HEAVY if name in sys.modules)
from magbarrier import cli
print(loaded())
from cli_golden import CASES
for name in ("minima", "airy", "ho", "count1d", "count2d", "localize"):
    with tempfile.TemporaryDirectory() as tmp:
        assert cli.main(CASES[name] + ["--jobs", "1", "--outdir", tmp]) == 0, name
print(loaded())
"""


def test_cli_imports_no_scipy_optimize_sparse_or_integrate():
    # cold start: only numpy, scipy.linalg and scipy.special load at module
    # scope, and none of these subcommand runs loads any of the three
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tools"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    at_import, after_runs = (line for line in out.splitlines()
                             if line.startswith("loaded:"))
    assert at_import == after_runs == "loaded: "


def _served_argvs(tmp_path):
    """Every argv tools/cli_golden.py runs, its --config cases passing their
    text from a file, and every reference operation of perfbench/golden.json."""
    spec = importlib.util.spec_from_file_location("cli_golden",
                                                  ROOT / "tools" / "cli_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    argvs = []
    for name, argv in golden.CASES.items():
        if name in golden.CONFIGS:
            path = tmp_path / f"{name}.cfg"
            path.write_text(golden.CONFIGS[name])
            argv = argv + ["--config", str(path)]
        argvs.append(argv)
    reference = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    return argvs + [argv for workload in reference.values()
                    for op in workload["ops"] for argv in op["argv"]]


def test_no_bound_refuses_a_served_workload(tmp_path):
    parser = cli.build_parser()
    for argv in _served_argvs(tmp_path):
        args = parser.parse_args(argv)
        cli._convert("jobs", cli.RUN_OPTIONS["jobs"], args.jobs)
        cli.effective_config(args.command, args)


def test_every_count_has_a_maximum_that_keeps_the_row_budget():
    for schema in cli.COMMANDS.values():
        for option in schema.values():
            if option.kind == "int":
                assert 1 <= option.domain[0] <= option.domain[1] < math.inf
            elif option.kind == "floats":
                assert 1 < option.most < math.inf
            else:
                assert option.most == 1
    # --jobs alone is unbounded: _k_map clamps it to the usable CPUs
    assert cli.RUN_OPTIONS["jobs"].domain == (1, math.inf)

    def top(command, name):
        return cli.COMMANDS[command][name].domain[1]

    # a band table holds samples x bands entries, at least three samples; a
    # window traces 2n+1 bands
    for command, samples in (("bands", "samples"), ("mourre", "samples"),
                             ("budget", "samples"), ("localize", "trace_samples")):
        assert cli.COMMANDS[command][samples].domain == cli.TRACE_SAMPLES
        most = top(command, "nbands") if command == "bands" \
            else 2 * top(command, "n") + 1
        assert top(command, samples) * most <= fiber.MAX_ROWS
    assert cli.TRACE_SAMPLES[0] == 3
    # the envelope sweep checks samples x 2n states, ho a k-grid of samples
    assert top("localize", "samples") * 2 * top("localize", "n") <= fiber.MAX_ROWS
    assert top("ho", "samples") <= fiber.MAX_ROWS
