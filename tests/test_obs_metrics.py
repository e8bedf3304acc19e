"""Metrics registry semantics: labeled counters and gauges."""

import threading

import pytest

from repro.obs import MetricsRegistry


@pytest.fixture
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_labeled_series_are_independent(self, reg):
        c = reg.counter("bytes", "moved")
        c.inc(10, link="h2d")
        c.inc(5, link="nic")
        c.inc(2.5, link="h2d")
        assert c.value(link="h2d") == 12.5
        assert c.value(link="nic") == 5.0
        assert c.value(link="d2h") == 0.0
        assert c.total() == 17.5

    def test_label_order_is_canonical(self, reg):
        c = reg.counter("c")
        c.inc(1, a="x", b="y")
        c.inc(1, b="y", a="x")
        assert c.value(a="x", b="y") == 2.0

    def test_counters_only_go_up(self, reg):
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_create_or_fetch_same_instance(self, reg):
        assert reg.counter("c") is reg.counter("c")

    def test_type_conflict_raises(self, reg):
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_thread_safety(self, reg):
        c = reg.counter("n")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_last_write_wins(self, reg):
        g = reg.gauge("occupancy")
        g.set(0.5, rank="0")
        g.set(0.75, rank="0")
        assert g.value(rank="0") == 0.75

    def test_add_is_signed(self, reg):
        g = reg.gauge("pool")
        g.add(100)
        g.add(-40)
        assert g.value() == 60


class TestRegistry:
    def test_to_dict_shape(self, reg):
        reg.counter("c", "help text").inc(2, x="1")
        reg.gauge("g").set(7)
        snap = reg.to_dict()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["help"] == "help text"
        assert snap["c"]["series"] == [{"labels": {"x": "1"}, "value": 2.0}]
        assert snap["g"]["series"][0]["value"] == 7.0

    def test_reset(self, reg):
        reg.counter("c").inc()
        reg.reset()
        assert "c" not in reg
        assert reg.to_dict() == {}

    def test_names_sorted(self, reg):
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
