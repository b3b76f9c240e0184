"""Unit tests for the FDDI link model and UDP/TCP channels."""

import pytest

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.costmodel import CostModel
from repro.sim.engine import YIELD
from repro.sim.network import Link, TcpChannel, UdpChannel


@pytest.fixture
def cost():
    return CostModel.paper_testbed()


class TestLink:
    def test_wire_time_proportional_to_size(self, cost):
        link = Link(cost)
        t1 = link.transmit(0.0, 1000)
        link2 = Link(cost)
        t2 = link2.transmit(0.0, 2000)
        assert t2 - cost.wire_latency == pytest.approx(
            2 * (t1 - cost.wire_latency))

    def test_contention_serializes(self, cost):
        link = Link(cost)
        a = link.transmit(0.0, 10000)
        b = link.transmit(0.0, 10000)  # same instant: must queue
        assert b > a
        assert b - a == pytest.approx(cost.wire_time(10000))

    def test_no_contention_when_disabled(self):
        cost = CostModel.paper_testbed().variant(shared_medium=False)
        link = Link(cost)
        a = link.transmit(0.0, 10000)
        b = link.transmit(0.0, 10000)
        assert a == b

    def test_idle_link_no_queueing(self, cost):
        link = Link(cost)
        a = link.transmit(0.0, 1000)
        b = link.transmit(a + 1.0, 1000)
        assert b - (a + 1.0) == pytest.approx(
            cost.wire_latency + cost.wire_time(1000 + 0))

    def test_utilization(self, cost):
        link = Link(cost)
        link.transmit(0.0, 12500)  # 1 ms of wire time
        assert link.utilization(0.01) == pytest.approx(0.1)
        assert link.utilization(0.0) == 0.0


def _echo_cluster(nprocs=2, cost=None):
    cluster = Cluster(nprocs, config=ClusterConfig(cost=cost))
    inbox = []

    def main(proc):
        proc.register("msg", lambda d: inbox.append(d))
        yield YIELD

    return cluster, inbox, main


class TestUdpChannel:
    def test_small_message_single_datagram(self, cost):
        cluster, inbox, main = _echo_cluster()
        udp = UdpChannel(cluster.net)

        def main0(proc):
            proc.register("msg", lambda d: inbox.append(d))
            if proc.pid == 0:
                yield YIELD
                udp.send(0, 1, "msg", "hello", 100, t_ready=proc.now)
            proc.compute(0.01)

        cluster.run(main0)
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        counter = cluster.stats.get("tmk", "msg")
        assert counter.messages == 1
        assert counter.bytes == 100 + cost.udp_header_bytes

    def test_fragmentation_counts_datagrams(self, cost):
        cluster, inbox, main = _echo_cluster()
        udp = UdpChannel(cluster.net)
        nbytes = cost.udp_mtu * 3 + 1  # 4 fragments

        def main0(proc):
            proc.register("msg", lambda d: inbox.append(d))
            if proc.pid == 0:
                yield YIELD
                udp.send(0, 1, "msg", None, nbytes, t_ready=proc.now)
            proc.compute(0.01)

        cluster.run(main0)
        counter = cluster.stats.get("tmk", "msg")
        assert counter.messages == 4
        assert counter.bytes == nbytes + 4 * cost.udp_header_bytes

    def test_sender_cpu_charged_per_fragment(self, cost):
        cluster, _, _ = _echo_cluster()
        udp = UdpChannel(cluster.net)
        times = {}

        def main0(proc):
            proc.register("msg", lambda d: None)
            if proc.pid == 0:
                yield YIELD
                t0 = proc.now
                t1 = udp.send(0, 1, "msg", None, cost.udp_mtu * 2,
                              t_ready=t0)
                times["delta"] = t1 - t0
            proc.compute(0.01)

        cluster.run(main0)
        expected = 2 * cost.udp_send_cpu + cost.copy_cost(cost.udp_mtu * 2)
        assert times["delta"] == pytest.approx(expected)


class TestTcpChannel:
    def test_counts_one_user_message_regardless_of_size(self, cost):
        cluster, inbox, _ = _echo_cluster()
        tcp = TcpChannel(cluster.net)
        nbytes = cost.tcp_segment * 5

        def main0(proc):
            proc.register("msg", lambda d: inbox.append(d))
            if proc.pid == 0:
                yield YIELD
                tcp.send(0, 1, "msg", None, nbytes, t_ready=proc.now)
            proc.compute(0.1)

        cluster.run(main0)
        counter = cluster.stats.get("pvm", "msg")
        assert counter.messages == 1
        assert counter.bytes == nbytes  # user data only, no headers

    def test_tcp_per_byte_slower_than_udp(self, cost):
        """The TCP stack costs more per byte than TreadMarks' UDP layer."""
        nbytes = 1 << 20
        results = {}
        for name, channel_cls in (("udp", UdpChannel), ("tcp", TcpChannel)):
            cluster, inbox, _ = _echo_cluster()
            channel = channel_cls(cluster.net)

            def main0(proc, channel=channel):
                proc.register("msg", lambda d: inbox.append(d))
                if proc.pid == 0:
                    yield YIELD
                    channel.send(0, 1, "msg", None, nbytes, t_ready=proc.now)
                proc.compute(1.0)

            cluster.run(main0)
            results[name] = inbox[-1].arrival + inbox[-1].recv_cpu
        assert results["tcp"] > results["udp"]


class TestDeliveryOrdering:
    def test_fifo_per_pair(self, cost):
        cluster, inbox, _ = _echo_cluster()
        udp = UdpChannel(cluster.net)

        def main0(proc):
            proc.register("msg", lambda d: inbox.append(d.payload))
            if proc.pid == 0:
                yield YIELD
                for i in range(10):
                    t = udp.send(0, 1, "msg", i, 50, t_ready=proc.now)
                    proc.set_now(t)
            proc.compute(0.1)

        cluster.run(main0)
        assert inbox == list(range(10))

    def test_unknown_category_raises(self):
        cluster = Cluster(2)
        udp = UdpChannel(cluster.net)

        def main0(proc):
            if proc.pid == 0:
                yield YIELD
                udp.send(0, 1, "no_handler", None, 10, t_ready=proc.now)
            proc.compute(0.01)

        with pytest.raises(RuntimeError, match="no handler"):
            cluster.run(main0)
