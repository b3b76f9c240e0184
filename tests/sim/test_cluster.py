"""Unit tests for the cluster harness, mailboxes and measurement windows."""

import pytest

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import YIELD
from repro.sim.network import UdpChannel
from repro.sim.trace import Trace


class TestClusterBasics:
    def test_results_collected_in_pid_order(self):
        cluster = Cluster(4)
        res = cluster.run(lambda proc: proc.pid * 11)
        assert res.results == [0, 11, 22, 33]

    def test_elapsed_is_max_finish_time(self):
        cluster = Cluster(3)

        def main(proc):
            proc.compute(0.1 * (proc.pid + 1))

        res = cluster.run(main)
        assert res.elapsed == pytest.approx(0.3)
        assert res.finish_times == pytest.approx([0.1, 0.2, 0.3])

    def test_needs_at_least_one_processor(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_clock_cannot_go_backwards(self):
        cluster = Cluster(1)

        def main(proc):
            proc.compute(1.0)
            proc.set_now(0.5)

        with pytest.raises(ValueError, match="backwards"):
            cluster.run(main)

    def test_duplicate_handler_rejected(self):
        cluster = Cluster(1)

        def main(proc):
            proc.register("x", lambda d: None)
            proc.register("x", lambda d: None)

        with pytest.raises(ValueError, match="duplicate"):
            cluster.run(main)


class TestMailbox:
    def test_request_response_roundtrip(self):
        cluster = Cluster(2)
        udp = UdpChannel(cluster.net)

        def main(proc):
            def serve(delivery):
                box, value = delivery.payload
                box.put(value * 2, delivery.arrival + 1e-4)
            proc.register("req", serve)
            proc.register("resp", lambda d: d.payload[0].put(
                d.payload[1], d.arrival))
            yield YIELD
            if proc.pid == 0:
                box = proc.mailbox()
                udp.send(0, 1, "req", (box, 21), 16, t_ready=proc.now)
                # The responder itself replies through the network in real
                # protocols; here put() happens directly in the handler.
                assert (yield from box.wait("answer")) == 42
                return proc.now
            proc.compute(0.001)
            return None

        res = cluster.run(main)
        assert res.results[0] > 0

    def test_double_put_rejected(self):
        cluster = Cluster(1)

        def main(proc):
            box = proc.mailbox()
            box.put(1, 0.0)
            with pytest.raises(RuntimeError, match="twice"):
                box.put(2, 0.0)

        cluster.run(main)

    def test_put_before_wait_returns_immediately(self):
        cluster = Cluster(1)

        def main(proc):
            box = proc.mailbox()
            box.put("early", 5.0)
            value = yield from box.wait("never blocks")
            assert value == "early"
            return proc.now

        res = cluster.run(main)
        assert res.results[0] == 5.0  # clock advanced to the put time


class TestMeasurementWindow:
    def test_start_measurement_resets_stats_and_clock(self):
        cluster = Cluster(2)
        udp = UdpChannel(cluster.net)
        seen = []

        def main(proc):
            proc.register("m", lambda d: seen.append(d))
            yield YIELD
            if proc.pid == 0:
                t = udp.send(0, 1, "m", None, 1000, t_ready=proc.now)
                proc.set_now(t)
                proc.compute(1.0)
                cluster.start_measurement(proc)
                proc.compute(0.5)
            else:
                proc.compute(2.0)

        res = cluster.run(main)
        # The pre-measurement message is excluded.
        assert res.stats.total("tmk").messages == 0
        assert res.measured < res.elapsed

    def test_stop_measurement_freezes_stats(self):
        cluster = Cluster(2)
        udp = UdpChannel(cluster.net)

        def main(proc):
            proc.register("m", lambda d: None)
            yield YIELD
            if proc.pid == 0:
                t = udp.send(0, 1, "m", None, 100, t_ready=proc.now)
                proc.set_now(t)
                cluster.stop_measurement(proc)
                t = udp.send(0, 1, "m", None, 100, t_ready=proc.now)
                proc.set_now(t)
            proc.compute(0.01)

        res = cluster.run(main)
        # Only the first message is inside the frozen window.
        assert res.stats.total("tmk").messages == 1


class TestTrace:
    def test_trace_disabled_by_default(self):
        """With no subscriber there is no event stream at all."""
        cluster = Cluster(1)
        assert cluster.events is None
        assert all(proc.events is None for proc in cluster.procs)

    def test_trace_records_when_enabled(self):
        trace = Trace()
        cluster = Cluster(1, config=ClusterConfig(trace=trace))
        cluster.run(lambda proc: proc.events.lock_release(proc.pid, 3,
                                                          proc.now))
        assert len(trace.events) == 1
        assert trace.events[0].kind == "lock_release"
        assert trace.events[0].detail == "lock=3"

    def test_of_kind_filter_and_format(self):
        trace = Trace()
        trace.record(0.1, 0, "a", "first")
        trace.record(0.2, 1, "b", "second")
        assert len(trace.of_kind("a")) == 1
        assert "P1" in trace.format()
        assert trace.format(limit=1).count("\n") == 0


class TestLegacyKwargs:
    """The pre-ClusterConfig constructor spelling was removed in v1.2."""

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            Cluster(1, trace=Trace())
        with pytest.raises(TypeError):
            Cluster(1, cost=None, faults=None)

    def test_config_form_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Cluster(1, config=ClusterConfig(trace=Trace()))
            Cluster(1)  # bare form stays silent too
