import importlib
from fractions import Fraction

import tracer


def test_self_time_of_nested_spans():
    # outer [0, 100] holds inner [10, 30] and inner [35, 40]
    clock = iter([0, 10, 30, 35, 40, 100])
    rec = tracer.Recorder(clock=lambda: next(clock))

    def outer():
        rec.span("inner", lambda: None)
        rec.span("inner", lambda: None)

    rec.span("outer", outer)
    assert rec.self_ns == {"outer": 75, "inner": 25}
    assert rec.calls == {"outer": 1, "inner": 2}
    assert list(rec.span_parent) == [-1, 0, 0]
    assert rec.self_ns_under("inner", "outer") == 25


def test_errors_are_counted_and_reraised():
    rec = tracer.Recorder()

    def boom():
        raise ValueError("x")

    try:
        rec.span("f", boom)
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert rec.errors["f"] == 1 and rec.calls["f"] == 1 and not rec._stack


def test_install_rebinds_imported_names_and_uninstalls():
    glp = importlib.import_module("glpgalois.glp")
    newton = importlib.import_module("glpgalois.newton")
    original = newton.newton_polygon
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        assert glp.newton_polygon is newton.newton_polygon is not original
        params = glp.GlpParams.from_alpha(10, Fraction(0))  # degree-set filter path
        rec.span(tracer.ROOT, glp.classify, params, assume_irreducible=False)
    finally:
        uninstall()
    assert glp.newton_polygon is original and newton.newton_polygon is original
    assert rec.calls["glp.classify"] == 1
    assert rec.calls["newton.newton_polygon"] > 0
    assert rec.calls["modp.good_primes"] >= 1  # generator: one call, spans per resume
    tested = rec.counters["modp.good_primes.tested"]
    assert 0 < rec.counters["modp.good_primes.good"] <= tested
    assert sum(rec.self_ns.values()) == rec.span_end[0] - rec.span_start[0]
