"""Acceptance gate: one test per quantitative guarantee, in order.

Each test prints a single ``criterion NN PASS`` line with the measured
numbers (visible under ``pytest -v -s`` or on failure) and enforces the
stated tolerance and runtime with assertions. Shared fixtures build the
expensive traces once; per-criterion clocks time only the criterion's own
work.
"""

import math
import time

import numpy as np
import pytest
from oracles import birman_schwinger_count

from magbarrier import (asymptotics, bands, cli, counting, fiber,
                        localization, mourre)
from magbarrier.counting import Grid2DSpec


def _line(num, detail):
    print(f"criterion {num:02d} PASS — {detail}")


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def band_artifacts(tmp_path_factory):
    """The emitted band table and plot data: b=1, k in [-4, 6], 401 samples,
    traced on two workers (the table is the same at every --jobs)."""
    outdir = tmp_path_factory.mktemp("bands")
    code = cli.main(["bands", "--b", "1", "--kmin", "-4", "--kmax", "6",
                     "--nbands", "8", "--samples", "401", "--jobs", "2",
                     "--outdir", str(outdir)])
    assert code == 0
    columns, rows, summary = None, [], {}
    for line in (outdir / "bands.csv").read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            summary[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    per_band = {j: [] for j in range(1, 9)}
    for row in rows:
        rec = dict(zip(columns, row))
        per_band[int(rec["j"])].append(
            (float(rec["k"]), float(rec["omega"]),
             float(rec["domega_fh"]), float(rec["domega_bd"]),
             rec["parity"]))
    return {"per_band": per_band, "summary": summary,
            "plot": (outdir / "bands_plot.dat").read_text()}


def _build_window(n, b, n_bands=None):
    root_b = math.sqrt(b)
    if n_bands is None:
        n_bands = max(2 * n + 1, 5)
    table = bands.trace(b, -4.0 * root_b, 6.0 * root_b, n_bands=n_bands,
                        base_samples=81, refine=True, jobs=2)
    hi = bands.table_minimum(table, 2 * n + 1)[1]
    e_mid = 0.5 * ((2.0 * n - 1.0) * b + hi)
    return table, mourre.window_report(n, e_mid, b, table)


@pytest.fixture(scope="module")
def window_11():
    return _build_window(1, 1.0)


@pytest.fixture(scope="module")
def window_21():
    return _build_window(2, 1.0)


@pytest.fixture(scope="module")
def window_14():
    return _build_window(1, 4.0)


@pytest.fixture(scope="module")
def window_b100():
    return _build_window(1, 100.0, n_bands=3)


@pytest.fixture(scope="module")
def minima_b1():
    return {j: bands.find_minimum(j, 1.0) for j in range(1, 5)}


# ---------------------------------------------------------------------------
# criteria


def test_c01_oscillator_anchor():
    t0 = time.perf_counter()
    grids = fiber.first_levels(1.0, 0.0, 6, refine=True)
    omegas = [fiber.refined([p.omega for p in pairs]) for pairs in zip(*grids)]
    elapsed = time.perf_counter() - t0
    worst = max(abs(omega - (2 * j - 1)) / (2 * j - 1)
                for j, omega in enumerate(omegas, 1))
    assert worst <= 1e-6, f"oscillator anchor off by {worst:.2e} relative"
    assert elapsed < 5.0, f"anchor took {elapsed:.1f}s"
    _line(1, f"omega_j(0) = 2j-1 to {worst:.1e} rel in {elapsed:.2f}s")


def test_c02_scaling_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(50):
        b = float(rng.choice([1.0, 4.0, 25.0]))
        j = int(rng.integers(1, 7))
        k = float(rng.uniform(-5.0, 5.0) * math.sqrt(b))
        omega = fiber.first_levels(b, k, 6)[0][j - 1].omega
        scaled = b * fiber.first_levels(1.0, k / math.sqrt(b), 6)[0][j - 1].omega
        worst = max(worst, abs(omega - scaled) / scaled)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"scaling law violated at {worst:.2e} relative"
    assert elapsed < 30.0, f"scaling sweep took {elapsed:.1f}s"
    _line(2, f"50 random (j,k,b) scale to {worst:.1e} rel in {elapsed:.1f}s")


def test_c03_derivative_cross_check(band_artifacts):
    t0 = time.perf_counter()
    per_band = band_artifacts["per_band"]
    dk = per_band[1][1][0] - per_band[1][0][0]
    candidates = [(j, i) for j in range(1, 9)
                  for i in range(2, len(per_band[j]) - 2)]
    rng = np.random.default_rng(3)
    rng.shuffle(candidates)
    checked, worst = 0, 0.0
    for j, i in candidates:
        rows = per_band[j]
        fh, bd = rows[i][2], rows[i][3]
        if abs(fh) < 0.05:        # relative agreement needs a nonzero slope
            continue
        fd = (-rows[i + 2][1] + 8.0 * rows[i + 1][1]
              - 8.0 * rows[i - 1][1] + rows[i - 2][1]) / (12.0 * dk)
        scale = max(abs(fh), abs(bd), abs(fd))
        gap = max(abs(fh - bd), abs(fh - fd), abs(bd - fd)) / scale
        worst = max(worst, gap)
        checked += 1
        if checked == 100:
            break
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert worst <= 1e-4, f"derivative routes disagree at {worst:.2e} relative"
    assert elapsed < 60.0, f"cross-check took {elapsed:.1f}s"
    _line(3, f"FH/boundary/FD pairwise to {worst:.1e} rel on 100 samples")


def test_c04_minima_and_effective_mass(minima_b1):
    worst = 0.0
    for j in range(1, 4):
        rec = minima_b1[j]
        assert 0.0 < rec.kappa < math.sqrt((4 * j - 3) * 1.0)
        assert max(2 * j - 3, 0) * 1.0 < rec.energy < (2 * j - 1) * 1.0
        hk = 1e-2
        w = [fiber.refined([p.omega for p in fiber.band(1.0, rec.kappa + m * hk,
                                                         2 * j - 1, refine=True)])
             for m in (-2, -1, 0, 1, 2)]
        second = (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) \
            / (12.0 * hk * hk)
        gap = abs(0.5 * second - rec.beta) / rec.beta
        worst = max(worst, gap)
        assert gap <= 1e-3, f"band {2*j-1}: closed-form beta off by {gap:.2e}"
    _line(4, f"kappa/energy brackets hold, beta closed vs FD to "
             f"{worst:.1e} rel for j=1..3")


def test_c05_airy_regime():
    t0 = time.perf_counter()
    errors = {}
    for k in (-15.0, -20.0, -40.0):
        for j in range(1, 5):
            check = asymptotics.airy_check(1.0, k, j)
            assert check.passed, f"Airy bound fails at k={k}, j={j}"
            errors[(k, j)] = check.measured_error
    target = 2.0 ** (2.0 / 3.0)
    worst = 0.0
    for j in range(1, 5):
        ratio = errors[(-20.0, j)] / errors[(-40.0, j)]
        dev = abs(ratio - target) / target
        worst = max(worst, dev)
        assert dev <= 0.25, f"error ratio {ratio:.3f} vs 2^(2/3) off by {dev:.0%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"Airy sweep took {elapsed:.1f}s"
    _line(5, f"12 wedge checks pass; -2/3 error decay to {worst:.0%} "
             f"in {elapsed:.1f}s")


def test_c06_oscillator_splitting():
    t0 = time.perf_counter()
    fit = asymptotics.splitting_fit(1.0, 1, np.linspace(3.0, 6.0, 7))
    elapsed = time.perf_counter() - t0
    assert all(s.splitting > 0.0 for s in fit.retained)
    assert fit.rate <= -0.20, f"splitting slope {fit.rate:.3f} above -0.20"
    assert fit.r2 >= 0.99, f"splitting fit R^2 {fit.r2:.4f} below 0.99"
    assert elapsed < 30.0, f"splitting fit took {elapsed:.1f}s"
    _line(6, f"slope {fit.rate:.3f} <= -0.20, R^2 {fit.r2:.4f} "
             f"in {elapsed:.1f}s")


def test_c07_monotonicity(band_artifacts):
    summary = band_artifacts["summary"]
    samples = int(summary["samples"])
    violations = int(summary["monotonicity_violations"])
    assert samples >= 400, f"only {samples} k-samples"
    assert violations == 0, f"{violations} shape violations"
    _line(7, f"0 violations over {samples} samples x 8 bands "
             f"({summary['monotonicity_checked']} checks)")


def test_c08_mourre_windows(window_11, window_21, window_14):
    cs = {}
    for tag, (_, report) in (("n1b1", window_11), ("n2b1", window_21),
                             ("n1b4", window_14)):
        assert report.window.delta > 0.0, f"{tag}: no window half-width found"
        assert report.c_n > 0.0, f"{tag}: commutator constant not positive"
        cs[tag] = report.c_n
    drift = abs(cs["n1b1"] - cs["n1b4"])
    assert drift <= 1e-3, f"scaled c_n drifts {drift:.2e} between b=1 and b=4"
    _line(8, f"delta0, c_n > 0 on (1,1),(2,1),(1,4); scaled c_n drift "
             f"{drift:.1e}")


def test_c09_edge_currents(window_11, window_21, window_14):
    total = 0
    for seed, (table, report) in ((11, window_11), (21, window_21),
                                  (14, window_14)):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            state = mourre.random_state(report, rng)
            mourre.edge_current_fiber(state, table)   # raises on violation
            total += 1
        state = mourre.random_state(report, rng)
        before = mourre.edge_current_fiber(state, table)
        after = mourre.edge_current_fiber(
            mourre.evolve_free(state, 0.37, table), table)
        assert after == before, "free evolution changed the edge current"
    assert total == 600
    _line(9, "600 random window states beat (c_n/2) sqrt(b) ||phi||^2; "
             "free evolution leaves J_y bitwise unchanged")


def test_c10_perturbation_budgets(window_11, window_21, window_14):
    budgets = {}
    for tag, (_, report) in (("n1b1", window_11), ("n2b1", window_21),
                             ("n1b4", window_14)):
        bud = mourre.perturbation_budget(report)
        assert bud.a_star > 0.0 and bud.q_star > 0.0
        assert bud.F_value < 0.5
        budgets[tag] = bud
    da = abs(budgets["n1b1"].a_star - budgets["n1b4"].a_star) \
        / budgets["n1b1"].a_star
    dq = abs(budgets["n1b1"].q_star - budgets["n1b4"].q_star) \
        / budgets["n1b1"].q_star
    assert da <= 1e-3 and dq <= 1e-3, \
        f"scaled budget drifts (a {da:.2e}, q {dq:.2e}) between b=1 and b=4"
    _line(10, f"a*, q* > 0 with F < 1/2 on all windows; b-drift "
              f"a {da:.1e}, q {dq:.1e}")


def test_c11_localization(window_11, window_21, window_14, window_b100):
    worst_ratio = 0.0
    for _, report in (window_11, window_21, window_14):
        for check in localization.window_envelope_sweep(report):
            assert check.envelope_ok, \
                f"envelope beaten at j={check.j}, k={check.k:.3f}"
            worst_ratio = max(worst_ratio, check.max_ratio)
    assert worst_ratio <= 1.0 + 1e-6
    table, report = window_b100
    rng = np.random.default_rng(100)
    worst_inside, bound = math.inf, None
    for _ in range(50):
        state = localization.normalized_random_state(report, rng)
        inside, bound, ok = localization.strip_mass(state, table, 0.25, 100.0)
        worst_inside = min(worst_inside, inside)
        assert ok, f"strip mass {inside:.6f} under the bound {bound:.6f}"
    _line(11, f"envelope ratio <= 1+1e-6 (worst {worst_ratio:.3f}); strip "
              f"mass >= {bound:.6f} on 50 states at b=100 "
              f"(worst {worst_inside:.6f})")


def test_c12_counting_1d():
    t0 = time.perf_counter()

    def q_model(y):
        return (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5

    lams = (1e-3, 3e-4, 1e-4)
    scaled = []
    for lam in lams:
        n = counting.count_1d(1.0, q_model, lam, half_width=3.0 / lam)
        scaled.append(math.sqrt(lam) * n)
    assert 0.85 <= scaled[-1] <= 1.15, f"scaled count {scaled[-1]:.4f}"
    gaps = [abs(1.0 - s) for s in scaled]
    assert gaps[0] > gaps[1] > gaps[2], f"trend not monotone: {scaled}"

    rng = np.random.default_rng(20260817)
    for _ in range(20):
        n = int(rng.integers(120, 400))
        h = float(rng.uniform(0.05, 0.2))
        m = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(1e-3, 0.3))
        ys = (np.arange(n) - 0.5 * (n - 1)) * h
        q = np.zeros(n)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(0.2, 3.0)
            center = rng.uniform(-0.3, 0.3) * n * h
            width = rng.uniform(0.5, 3.0)
            q += amp * np.exp(-(((ys - center) / width) ** 2))
        d = 2.0 * m * m / (h * h) - q
        e = np.full(n - 1, -m * m / (h * h))
        direct = counting.tridiagonal_inertia(d, e, -lam)
        assert birman_schwinger_count(m, q, lam, h) == direct
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"1D counting took {elapsed:.1f}s"
    _line(12, f"sqrt(lam) N = {scaled[0]:.4f} -> {scaled[-1]:.4f} monotone "
              f"toward 1; 20/20 resolvent-sandwich counts equal; "
              f"{elapsed:.0f}s")


def test_c13_counting_2d(minima_b1):
    t0 = time.perf_counter()
    rec = minima_b1[1]
    V = counting.DecayPotential(1.0)
    (ground,) = fiber.band(1.0, rec.kappa, 1)
    ell = counting.tail_coefficient(V, ground)
    constant = counting.counting_constant_1d(1.0, ell, math.sqrt(rec.beta))
    ladder = tuple(3e-2 * rec.energy * 0.1 ** (i / 4.0) for i in range(5))
    counts, meta = counting.count_2d(1.0, V, ladder, spec=Grid2DSpec(),
                                     ell=ell, jobs=2)
    exponent, prefactor = counting.ladder_fit(ladder, counts)
    gap = abs(exponent - 0.5)  # 1/alpha - 1/2 at alpha = 1
    ratio = prefactor / constant
    elapsed = time.perf_counter() - t0
    assert gap <= 0.15, f"fitted exponent off 1/2 by {gap:.4f}"
    assert 0.5 <= ratio <= 2.0, f"prefactor ratio {ratio:.3f} outside [0.5, 2]"
    assert meta["unknowns"] <= 10_000_000
    assert elapsed < 600.0, f"2D counting took {elapsed:.0f}s"
    _line(13, f"counts {tuple(counts)} over 5 rungs: exponent "
              f"{exponent:.4f} (gap {gap:.4f}), prefactor "
              f"{ratio:.3f}x theory, {meta['unknowns']:.2g} unknowns, "
              f"{elapsed:.0f}s")


def test_c14_figure_one(band_artifacts, minima_b1):
    blocks, current = {}, None
    for line in band_artifacts["plot"].splitlines():
        if line.startswith("# band ") and "(" in line:
            idx = int(line.split()[2])
            parity = line.split("(")[1].rstrip(")")
            current = blocks.setdefault((idx, parity), [])
        elif line.startswith("#") or not line.strip():
            current = None
        elif current is not None:
            k, omega = line.split()
            current.append((float(k), float(omega)))
    assert len(blocks) == 8, f"plot has {len(blocks)} band blocks"
    for (idx, parity), pts in blocks.items():
        assert pts[1][1] < pts[0][1], f"band {idx} not decreasing at k=-4"
    dips = 0
    for (idx, parity), pts in blocks.items():
        if parity != "even":
            continue
        for i in range(1, len(pts) - 1):
            if 0.0 < pts[i][0] < 3.2 and \
                    pts[i - 1][1] > pts[i][1] < pts[i + 1][1]:
                dips += 1
    assert dips == 4, f"{dips} even-band minima in (0, 3.2), expected 4"
    worst = 0.0
    for j in range(1, 5):
        rec = minima_b1[j]
        omega = fiber.refined([p.omega for p in
                               fiber.band(1.0, rec.kappa, 2 * j - 1, refine=True)])
        gap = abs(omega - rec.kappa ** 2) / max(1.0, rec.kappa ** 2)
        worst = max(worst, gap)
        assert gap <= 1e-6, f"band {2*j-1} minimum off E=k^2 by {gap:.2e}"
    _line(14, f"8 bands, all decreasing at k=-4, 4 even minima in (0,3.2), "
              f"minima on E=k^2 to {worst:.1e}")
