"""Span nesting, the JSONL event log, and their integration."""

import io
import json
import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_state():
    """Tests must not leak the process event log or metrics."""
    assert obs.get_event_log() is None
    yield
    obs.set_event_log(None)
    obs.reset_metrics()


@pytest.fixture
def logged():
    """An event log attached for the test: spans stack only under one."""
    with obs.event_log(io.StringIO()) as log:
        yield log


class TestSpans:
    def test_nesting_builds_slash_paths(self, logged):
        paths = []
        with obs.span("outer"):
            paths.append(obs.current_span_path())
            with obs.span("inner"):
                paths.append(obs.current_span_path())
            paths.append(obs.current_span_path())
        assert paths == ["outer", "outer/inner", "outer"]
        assert obs.current_span_path() is None

    def test_span_without_log_is_only_a_clock(self):
        with obs.span("quiet", n=3) as handle:
            assert obs.current_span_path() is None  # not stacked
        assert handle.duration is not None and handle.duration >= 0.0
        assert obs.get_registry().to_dict() == {}

    def test_span_handle_attrs_and_duration(self):
        with obs.span("s", a=1) as handle:
            handle.set(b=2)
        assert handle.duration is not None and handle.duration >= 0.0
        assert handle.attrs == {"a": 1, "b": 2}

    def test_stack_unwinds_on_exception(self, logged):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert obs.current_span_path() is None

    def test_traced_decorator_bare_and_named(self, logged):
        @obs.traced
        def f():
            return obs.current_span_path()

        @obs.traced("custom.name")
        def g():
            return obs.current_span_path()

        assert f().endswith("f")
        assert g() == "custom.name"

    def test_threads_have_independent_stacks(self, logged):
        seen = {}

        def work():
            with obs.span("worker"):
                seen["worker"] = obs.current_span_path()

        with obs.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
            assert obs.current_span_path() == "main"
        # the worker thread did not inherit the main thread's stack
        assert seen["worker"] == "worker"


class TestEventLog:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.EventLog(path, run_id="r1") as log:
            log.emit("alpha", attrs={"x": 1, "theta": (0.5, 1.5)})
            log.emit("beta", span="a/b", attrs={"prec": "FP16"})
        events = obs.read_events(path)
        assert [e["type"] for e in events] == ["alpha", "beta"]
        assert all(e["run_id"] == "r1" for e in events)
        assert events[0]["attrs"] == {"x": 1, "theta": [0.5, 1.5]}
        assert events[1]["span"] == "a/b"
        assert [e["seq"] for e in events] == [0, 1]
        # monotonic timestamps
        assert events[0]["ts"] <= events[1]["ts"]

    def test_each_line_is_standalone_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.EventLog(path) as log:
            log.emit("a")
            log.emit("b")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.EventLog(path) as log:
            log.emit("ok")
        with open(path, "a") as fh:
            fh.write('{"type": "torn')  # crash mid-write
        events = obs.read_events(path)
        assert [e["type"] for e in events] == ["ok"]

    def test_corrupt_middle_line_raises(self, tmp_path, capsys):
        """Only the last line may be torn; a bad line with events after it
        is corruption, not the end of the log."""
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        with obs.EventLog(path) as log:
            for type_ in ("a", "b", "c", "d"):
                log.emit(type_)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"run\.jsonl: line 2 "):
            obs.read_events(path)
        assert main(["analyze", str(tmp_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_emit_after_close_is_dropped(self, tmp_path):
        log = obs.EventLog(tmp_path / "run.jsonl")
        log.close()
        log.emit("late")  # must not raise
        assert obs.read_events(tmp_path / "run.jsonl") == []

    def test_nonstring_attrs_are_coerced(self, tmp_path):
        import numpy as np

        from repro.precision import Precision

        path = tmp_path / "run.jsonl"
        with obs.EventLog(path) as log:
            log.emit("e", attrs={"p": Precision.FP16, "arr": np.arange(3),
                                 "scalar": np.float64(1.5)})
        ev = obs.read_events(path)[0]
        assert ev["attrs"]["p"] == "FP16"
        assert ev["attrs"]["arr"] == [0, 1, 2]
        assert ev["attrs"]["scalar"] == 1.5


class TestGlobalWiring:
    def test_emit_event_noop_without_log(self):
        obs.emit_event("nothing", {"x": 1})  # must not raise

    def test_event_log_context_attaches_and_restores(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.event_log(path, run_id="ctx") as log:
            assert obs.get_event_log() is log
            obs.emit_event("inside", {"n": 3})
        assert obs.get_event_log() is None
        events = obs.read_events(path)
        assert events[0]["type"] == "inside"
        assert events[0]["attrs"] == {"n": 3}

    def test_span_event_carries_path_and_attrs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.event_log(path):
            with obs.span("outer"):
                with obs.span("inner", tile=(1, 2)):
                    pass
        events = obs.read_events(path)
        spans = [e for e in events if e["type"] == "span"]
        assert [e["span"] for e in spans] == ["outer/inner", "outer"]
        assert spans[0]["attrs"]["tile"] == [1, 2]
        assert spans[0]["attrs"]["duration_seconds"] >= 0.0

    def test_span_error_is_recorded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.event_log(path):
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("nope")
        ev = obs.read_events(path)[0]
        assert ev["attrs"]["error"] == "ValueError"
