"""Per-layer metrics derived from the spans of one traced operation.

A layer is a magbarrier module. Busy time is the summed duration of a
function's spans; self time is a span's duration minus the part of its
interval that its child spans cover (children on parallel worker threads
may overlap, so the covered part is the union of their intervals).
"""

from collections import defaultdict

NS = 1e-9

# (name, unit, better); the trace run emits exactly these per operation.
METRICS = (
    ("counting.count_2d.calls", "count", "lower"),
    ("counting.count_2d.busy_s", "s", "lower"),
    ("counting.count_2d.self_s", "s", "lower"),
    ("counting.slices", "count", "lower"),
    ("counting.slice_ms", "ms", "lower"),
    ("counting.parallel_efficiency", "ratio", "higher"),
    ("counting.discrete_threshold.busy_s", "s", "lower"),
    ("counting.tridiagonal_inertia.calls", "count", "lower"),
    ("counting.tridiagonal_inertia.busy_s", "s", "lower"),
    ("counting.tridiagonal_inertia.rows", "count", "lower"),
    ("counting.count_1d.busy_s", "s", "lower"),
    ("tridiag.sturm_count.calls", "count", "lower"),
    ("tridiag.sturm_count.busy_s", "s", "lower"),
    ("tridiag.bisect_eigenvalue.calls", "count", "lower"),
    ("tridiag.passes_per_bisection", "ratio", "lower"),
    ("fiber.eigh_tridiagonal.calls", "count", "lower"),
    ("fiber.eigh_tridiagonal.busy_s", "s", "lower"),
    ("fiber.eigh_tridiagonal.rows", "count", "lower"),
    ("fiber.solves.n4000", "count", "lower"),
    ("fiber.solves.n8000", "count", "lower"),
    ("fiber.solves.other", "count", "lower"),
    ("fiber.self_s", "s", "lower"),
    ("bands.trace.busy_s", "s", "lower"),
    ("bands.trace.self_s", "s", "lower"),
    ("bands.k_points", "count", "lower"),
    ("bands.find_minimum.calls", "count", "lower"),
    ("bands.find_minimum.busy_s", "s", "lower"),
    ("asymptotics.omega_pair_precise.calls", "count", "lower"),
    ("asymptotics.omega_pair_precise.busy_s", "s", "lower"),
    ("asymptotics.omega_pair_precise.self_s", "s", "lower"),
    ("mourre.find_delta0.busy_s", "s", "lower"),
    ("mourre.mourre_constant.busy_s", "s", "lower"),
    ("mourre.endpoint_solves", "count", "lower"),
    ("localization.window_envelope_sweep.busy_s", "s", "lower"),
    ("localization.envelope_check.calls", "count", "lower"),
    ("localization.solved_level.hit_ratio", "ratio", "higher"),
    ("localization.solved_level.lookups", "count", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def self_times(spans):
    """{span id: self time in ns} for spans (id, name, start, end, parent, ...)."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered, reach = 0, start
        for c_start, c_end in sorted((max(c[2], start), min(c[3], end))
                                     for c in children[span[0]]):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span[0]] = (end - start) - covered
    return out


def _solve_bucket(rows):
    # Even sectors have N rows and odd sectors N - 1.
    for n in (4000, 8000):
        if rows in (n, n - 1):
            return f"n{n}"
    return "other"


def op_metrics(spans, solved_level_info, bytes_out):
    """Every per-layer metric except trace.overhead_ratio, for one operation.

    solved_level_info is (hits, misses) of localization._solved_level.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    self_ns = self_times(spans)
    parent_of = {span[0]: span for span in spans}

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[3] - s[2] for s in by_name[name]) * NS

    def self_s(name):
        return sum(self_ns[s[0]] for s in by_name[name]) * NS

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name[name] if s[6])

    def under(span, ancestor):
        while span[4] is not None:
            span = parent_of[span[4]]
            if span[1] == ancestor:
                return True
        return False

    m = {}
    for fn in ("count_2d", "tridiagonal_inertia"):
        m[f"counting.{fn}.calls"] = calls(f"counting.{fn}")
        m[f"counting.{fn}.busy_s"] = busy(f"counting.{fn}")
    m["counting.count_2d.self_s"] = self_s("counting.count_2d")
    slices = attr_sum("counting.counting_curve_2d", "slices")
    m["counting.slices"] = slices
    m["counting.slice_ms"] = (1e3 * m["counting.count_2d.busy_s"] / slices
                              if slices else 0.0)
    pool_capacity = sum((s[3] - s[2]) * NS * s[6]["jobs"]
                        for s in by_name["counting.counting_curve_2d"] if s[6])
    m["counting.parallel_efficiency"] = (m["counting.count_2d.busy_s"]
                                         / pool_capacity if pool_capacity
                                         else 0.0)
    m["counting.discrete_threshold.busy_s"] = busy("counting.discrete_threshold")
    m["counting.tridiagonal_inertia.rows"] = attr_sum(
        "counting.tridiagonal_inertia", "rows")
    m["counting.count_1d.busy_s"] = busy("counting.count_1d")

    m["tridiag.sturm_count.calls"] = calls("tridiag.sturm_count")
    m["tridiag.sturm_count.busy_s"] = busy("tridiag.sturm_count")
    bisections = calls("tridiag.bisect_eigenvalue")
    m["tridiag.bisect_eigenvalue.calls"] = bisections
    m["tridiag.passes_per_bisection"] = (
        sum(1 for s in by_name["tridiag.sturm_count"]
            if under(s, "tridiag.bisect_eigenvalue")) / bisections
        if bisections else 0.0)

    lapack = by_name["fiber.eigh_tridiagonal"]
    m["fiber.eigh_tridiagonal.calls"] = len(lapack)
    m["fiber.eigh_tridiagonal.busy_s"] = busy("fiber.eigh_tridiagonal")
    m["fiber.eigh_tridiagonal.rows"] = attr_sum("fiber.eigh_tridiagonal", "rows")
    buckets = defaultdict(int)
    for s in lapack:
        buckets[_solve_bucket(s[6]["rows"])] += 1
    for key in ("n4000", "n8000", "other"):
        m[f"fiber.solves.{key}"] = buckets[key]
    m["fiber.self_s"] = sum(self_ns[s[0]] for s in spans
                            if s[1].startswith("fiber.")
                            and s[1] != "fiber.eigh_tridiagonal") * NS

    m["bands.trace.busy_s"] = busy("bands.trace")
    m["bands.trace.self_s"] = self_s("bands.trace")
    m["bands.k_points"] = attr_sum("bands.trace", "k_points")
    m["bands.find_minimum.calls"] = calls("bands.find_minimum")
    m["bands.find_minimum.busy_s"] = busy("bands.find_minimum")

    name = "asymptotics.omega_pair_precise"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.busy_s"] = busy(name)
    m[f"{name}.self_s"] = self_s(name)

    m["mourre.find_delta0.busy_s"] = busy("mourre.find_delta0")
    m["mourre.mourre_constant.busy_s"] = busy("mourre.mourre_constant")
    m["mourre.endpoint_solves"] = sum(
        1 for s in by_name["fiber.solve_two_grids"]
        if under(s, "mourre.mourre_constant"))

    m["localization.window_envelope_sweep.busy_s"] = busy(
        "localization.window_envelope_sweep")
    m["localization.envelope_check.calls"] = calls("localization.envelope_check")
    hits, misses = solved_level_info
    lookups = hits + misses
    m["localization.solved_level.hit_ratio"] = hits / lookups if lookups else 0.0
    m["localization.solved_level.lookups"] = lookups

    m["cli.render_s"] = busy("cli.render_csv") + busy("cli.render_json")
    m["cli.bytes_out"] = bytes_out
    m["trace.spans"] = len(spans)
    return m
