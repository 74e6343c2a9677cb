from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import layers
import tracing


def span(sid, name, start, end, parent=None, attrs=None):
    return (sid, name, start, end, parent, 0, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "root", 0, 100),
        span(2, "a", 10, 40, 1),      # a and b overlap, as on two threads
        span(3, "b", 30, 60, 1),
        span(4, "a.child", 15, 20, 2),
        span(5, "late", 90, 130, 1),  # clipped to the parent's interval
    ]
    assert layers.self_times(spans) == {1: 100 - 50 - 10, 2: 25, 3: 30,
                                        4: 5, 5: 40}


def test_layer_metrics_on_a_synthetic_operation():
    ms = 1_000_000
    spans = [
        span(1, "asymptotics.omega_pair_precise", 0, 100 * ms),
        span(2, "tridiag.bisect_eigenvalue", 0, 50 * ms, 1),
        span(3, "tridiag.sturm_count", 0, 10 * ms, 2),
        span(4, "tridiag.sturm_count", 10 * ms, 20 * ms, 2),
        span(5, "tridiag.sturm_count", 60 * ms, 70 * ms, 1),
        span(6, "mourre.mourre_constant", 200 * ms, 300 * ms),
        span(7, "fiber.solve_two_grids", 200 * ms, 250 * ms, 6),
        span(8, "fiber.eigh_tridiagonal", 200 * ms, 240 * ms, 7,
             {"rows": 3999}),
        span(9, "fiber.solve_two_grids", 400 * ms, 410 * ms),
        span(10, "fiber.eigh_tridiagonal", 400 * ms, 405 * ms, 9,
             {"rows": 8000}),
        span(11, "counting.counting_curve_2d", 500 * ms, 600 * ms, None,
             {"slices": 40, "jobs": 2}),
        span(12, "counting.count_2d", 500 * ms, 590 * ms, 11),
        span(13, "counting.count_2d", 500 * ms, 570 * ms, 11),
    ]
    m = layers.op_metrics(spans, (3, 1), 123)
    assert {name for name, _, _ in layers.METRICS} - set(m) == \
        {"trace.overhead_ratio"}
    assert m["tridiag.sturm_count.calls"] == 3
    assert m["tridiag.passes_per_bisection"] == 2.0
    assert m["asymptotics.omega_pair_precise.self_s"] == 0.040
    assert m["mourre.endpoint_solves"] == 1
    assert (m["fiber.solves.n4000"], m["fiber.solves.n8000"]) == (1, 1)
    assert abs(m["fiber.self_s"] - 0.015) < 1e-12
    assert m["counting.slices"] == 40
    assert abs(m["counting.slice_ms"] - 160.0 / 40) < 1e-12
    assert abs(m["counting.parallel_efficiency"] - 0.16 / 0.2) < 1e-12
    assert m["localization.solved_level.hit_ratio"] == 0.75
    assert m["cli.bytes_out"] == 123


def test_worker_thread_spans_take_the_fork_span_as_parent():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("counting.count_2d", lambda x: x)

    def fan_out(xs, jobs):
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            counts = list(pool.map(leaf, xs))
        meta = {"lx": 1.0, "hx": 0.5, "unknowns": 3 * 7}
        return SimpleNamespace(lambdas=counts), meta

    fork = tracer.wrap("counting.counting_curve_2d", fan_out)
    assert fork([1, 2, 3], jobs=2)[0].lambdas == [1, 2, 3]
    leaf(4)
    (root,) = [s for s in tracer.spans if s[1] == "counting.counting_curve_2d"]
    leaves = [s for s in tracer.spans if s[1] == "counting.count_2d"]
    assert [s[4] for s in leaves].count(root[0]) == 3
    assert leaves[-1][4] is None
    assert root[6] == {"slices": 2 * 7 * 3, "jobs": 2}


def test_install_wraps_layers_and_uninstall_restores():
    import magbarrier
    from magbarrier import counting, tridiag

    original = counting.eigh_tridiagonal, tridiag.sturm_count
    tracer = tracing.Tracer()
    tracer.install(magbarrier)
    try:
        assert counting.bisection_count([2.0, 2.0, 2.0], [-1.0, -1.0], 2.5) == 2
        assert tridiag.sturm_count([2.0, 2.0], [1.0], 3.5, 1e-300) == 2
    finally:
        tracer.uninstall()
    assert (counting.eigh_tridiagonal, tridiag.sturm_count) == original
    names = [s[1] for s in tracer.spans]
    assert names == ["counting.eigh_tridiagonal", "counting.bisection_count",
                     "tridiag.sturm_count"]
    assert tracer.spans[0][4] == tracer.spans[1][0]
    assert tracer.spans[0][6] == {"rows": 3}
