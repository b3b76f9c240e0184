"""Tests for the PVM message-passing interface on the simulated cluster."""

import numpy as np
import pytest

from repro.pvm.api import PvmError, attach_pvm
from repro.pvm.buffers import DataFormat
from repro.sim.cluster import Cluster
from repro.sim.engine import YIELD


def pvm_run(fn, nprocs=2, route="direct"):
    cluster = Cluster(nprocs)
    attach_pvm(cluster, route=route)
    return cluster.run(fn), cluster


class TestSendRecv:
    def test_blocking_roundtrip(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                buf = pvm.initsend()
                buf.pkint([10, 20])
                yield from pvm.send(1, 5, buf)
                return None
            got = yield from pvm.recv(0, 5)
            return got.upkint(2).tolist()

        res, _ = pvm_run(main)
        assert res.results[1] == [10, 20]

    def test_recv_blocks_until_arrival(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                proc.compute(0.5)  # send late
                buf = pvm.initsend()
                buf.pkint([1])
                yield from pvm.send(1, 1, buf)
                return None
            t0 = proc.now
            yield from pvm.recv(0, 1)
            return proc.now - t0

        res, _ = pvm_run(main)
        assert res.results[1] >= 0.5

    def test_wildcard_source_and_tag(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid != 0:
                buf = pvm.initsend()
                buf.pkint([pvm.mytid])
                yield from pvm.send(0, 100 + pvm.mytid, buf)
                return None
            seen = set()
            for _ in range(3):
                got = yield from pvm.recv(-1, -1)
                seen.add((got.src, got.tag, int(got.upkint(1)[0])))
            return sorted(seen)

        res, _ = pvm_run(main, nprocs=4)
        assert res.results[0] == [(1, 101, 1), (2, 102, 2), (3, 103, 3)]

    def test_fifo_between_pair(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                for i in range(20):
                    buf = pvm.initsend()
                    buf.pkint([i])
                    yield from pvm.send(1, 9, buf)
                return None
            got = []
            for _ in range(20):
                got.append(int((yield from pvm.recv(0, 9)).upkint(1)[0]))
            return got

        res, _ = pvm_run(main)
        assert res.results[1] == list(range(20))

    def test_send_to_self_rejected(self):
        def main(proc):
            buf = proc.pvm.initsend()
            buf.pkint([1])
            yield from proc.pvm.send(proc.pvm.mytid, 0, buf)

        with pytest.raises(PvmError, match="self"):
            pvm_run(main, nprocs=1)

    def test_bad_destination(self):
        def main(proc):
            buf = proc.pvm.initsend()
            buf.pkint([1])
            yield from proc.pvm.send(99, 0, buf)

        with pytest.raises(PvmError, match="destination"):
            pvm_run(main)


class TestNonBlocking:
    def test_nrecv_returns_none_when_empty(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 1:
                early = yield from pvm.nrecv(0, 1)
                proc.compute(1.0)
                late = yield from pvm.nrecv(0, 1)
                return early is None, late is not None
            buf = pvm.initsend()
            buf.pkint([1])
            yield from pvm.send(1, 1, buf)
            return None

        res, _ = pvm_run(main)
        assert res.results[1] == (True, True)

    def test_probe_does_not_consume(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                buf = pvm.initsend()
                buf.pkint([7])
                yield from pvm.send(1, 3, buf)
                return None
            proc.compute(1.0)
            assert (yield from pvm.probe(0, 3))
            assert (yield from pvm.probe(0, 3))  # still there
            got = yield from pvm.recv(0, 3)
            assert not (yield from pvm.probe(0, 3))
            return int(got.upkint(1)[0])

        res, _ = pvm_run(main)
        assert res.results[1] == 7

    def test_pending_count(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                for _ in range(4):
                    buf = pvm.initsend()
                    buf.pkint([0])
                    yield from pvm.send(1, 2, buf)
                return None
            proc.compute(1.0)
            yield YIELD
            return pvm.pending()

        res, _ = pvm_run(main)
        assert res.results[1] == 4


class TestCollectives:
    def test_mcast_reaches_each_destination_once(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                buf = pvm.initsend()
                buf.pkint([42])
                yield from pvm.mcast([1, 2], 7, buf)
                return None
            if pvm.mytid in (1, 2):
                return int((yield from pvm.recv(0, 7)).upkint(1)[0])
            proc.compute(0.001)
            return (yield from pvm.nrecv(-1, -1)) is None

        res, cluster = pvm_run(main, nprocs=4)
        assert res.results[1] == 42 and res.results[2] == 42
        assert res.results[3] is True  # P3 got nothing
        # Paper accounting: one user-level message per destination.
        assert cluster.stats.get("pvm", "pvm_msg").messages == 2

    def test_bcast_excludes_sender(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 2:
                buf = pvm.initsend()
                buf.pkdouble([3.14])
                yield from pvm.bcast(8, buf)
                return None
            return float((yield from pvm.recv(2, 8)).upkdouble(1)[0])

        res, _ = pvm_run(main, nprocs=4)
        assert res.results[0] == pytest.approx(3.14)
        assert res.results[3] == pytest.approx(3.14)


class TestAccounting:
    def test_user_bytes_counted_not_headers(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                buf = pvm.initsend()
                buf.pkdouble(np.zeros(1000))
                yield from pvm.send(1, 1, buf)
                return None
            yield from pvm.recv(0, 1)
            return None

        _, cluster = pvm_run(main)
        counter = cluster.stats.get("pvm", "pvm_msg")
        assert counter.messages == 1
        assert counter.bytes == 8000

    def test_xdr_format_costs_more_time(self):
        def run(fmt):
            def main(proc):
                pvm = proc.pvm
                if pvm.mytid == 0:
                    buf = pvm.initsend(fmt)
                    buf.pkdouble(np.zeros(100000))
                    yield from pvm.send(1, 1, buf)
                    return proc.now
                yield from pvm.recv(0, 1)
                return proc.now

            res, _ = pvm_run(main)
            return res.results[1]

        # The paper disables XDR ("all the machines used are identical").
        assert run(DataFormat.XDR) > run(DataFormat.RAW)

    def test_daemon_route_slower_than_direct(self):
        def main(proc):
            pvm = proc.pvm
            if pvm.mytid == 0:
                buf = pvm.initsend()
                buf.pkdouble(np.zeros(10000))
                yield from pvm.send(1, 1, buf)
                return None
            yield from pvm.recv(0, 1)
            return proc.now

        direct, _ = pvm_run(main, route="direct")
        routed, _ = pvm_run(main, route="daemon")
        assert routed.results[1] > direct.results[1]

    def test_unknown_route_rejected(self):
        cluster = Cluster(2)
        with pytest.raises(PvmError):
            attach_pvm(cluster, route="carrier-pigeon")
