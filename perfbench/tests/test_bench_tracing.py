import types

import pytest
from tracing import Target, Tracer


def spans(tracer, rows):
    """Fill a tracer directly: rows of (name, start, end, parent)."""
    for name, start, end, parent in rows:
        tracer.names.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.run.append(-1)


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    spans(t, [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("c", 6.0, 8.5, 3),
    ])
    own = t.self_times()
    assert own["a"] == pytest.approx((3.0, 1))   # 10 - 3 - 4
    assert own["b"] == pytest.approx((2.0, 1))   # 3 - 1
    assert own["d"] == pytest.approx((1.5, 1))   # 4 - 2.5
    assert own["c"] == pytest.approx((3.5, 2))   # leaves keep their duration
    assert sum(v for v, _ in own.values()) == pytest.approx(10.0)
    assert t.total_time("c") == pytest.approx(3.5)


def test_wrapped_calls_record_parents_and_runs():
    t = Tracer()
    inner = t.wrap("cards.inner", lambda x: x + 1)
    run = t.wrap("protocol.run_protocol", lambda x: inner(inner(x)))
    outer = t.wrap("audit.audit_zk", lambda: [run(0), run(1)])
    assert outer() == [2, 3]
    assert t.names == ["audit.audit_zk", "protocol.run_protocol", "cards.inner", "cards.inner",
                       "protocol.run_protocol", "cards.inner", "cards.inner"]
    assert list(t.parent) == [-1, 0, 1, 1, 0, 4, 4]
    assert list(t.run) == [-1, 1, 1, 1, 4, 4, 4]
    assert all(s <= e for s, e in zip(t.start, t.end))


def test_span_closes_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("reject")

    with pytest.raises(ValueError):
        t.wrap("x", boom)()
    assert t.end[0] >= t.start[0] > 0
    with t.span("after"):
        pass
    assert t.parent[-1] == -1


def test_patched_restores_every_name_and_skips_missing_ones():
    def f():
        return "f"

    mod = types.SimpleNamespace(f=f)
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.patched([Target(mod, "f", "m.f"), Target(mod, "gone", "m.gone")]):
            assert mod.f is not f and mod.f() == "f"
            assert not hasattr(mod, "gone")
            raise RuntimeError
    assert mod.f is f
    assert t.names == ["m.f"]


def test_trace_targets_are_restored_after_tracing():
    import run
    import workloads

    targets = run.trace_targets()
    before = [getattr(t.module, t.attr) for t in targets]
    tracer = Tracer()
    with tracer.patched(targets):
        assert all(getattr(t.module, t.attr) is not f for t, f in zip(targets, before))
        inputs = workloads.setup_audit(3)
    assert [getattr(t.module, t.attr) for t in targets] == before
    assert inputs.failures == []
    assert "grid.verify" in tracer.names


def test_write_round_trips(tmp_path):
    import json

    t = Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
    t.write(tmp_path / "t.json")
    data = json.loads((tmp_path / "t.json").read_text())
    assert data["names"] == ["a", "b"]
    assert [row[3] for row in data["spans"]] == [-1, 0]
