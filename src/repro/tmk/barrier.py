"""TreadMarks barriers: centralized manager, 2(n-1) messages per episode.

"Tmk_barrier(i) is modeled as a release followed by an acquire: each
processor performs a release at barrier arrival and an acquire at barrier
departure."  Arrivals carry the client's vector time plus the interval
records the manager has not seen (as estimated from the vector time the
manager distributed at the previous departure); departures carry the merged
global knowledge back.

The manager (processor 0, as in TreadMarks) merges all arrivals only after
its own interval is closed -- processing write notices requires an empty
dirty set -- and dispatches every departure at the time the last arrival
landed, plus service cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.core import B_STALL_SYNC, B_WIRE
from repro.sim.engine import Block, YIELD
from repro.sim.network import Delivery
from repro.tmk.protocol import (CAT_BARRIER_ARRIVAL, CAT_BARRIER_DEPARTURE,
                                CAT_TREE_ARRIVAL, CAT_TREE_DEPARTURE,
                                BarrierArrival, BarrierDeparture, TreeArrival,
                                TreeDeparture)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Processor
    from repro.tmk.api import TmkSystem
    from repro.tmk.consistency import LrcCore

__all__ = ["BarrierSubsystem", "TreeBarrierSubsystem"]

#: CPU cost of the local bookkeeping at a barrier (no-communication part).
_LOCAL_BARRIER_CPU = 10e-6

#: The barrier manager / tree root (TreadMarks: processor 0).
_MANAGER = 0


@dataclass
class _Episode:
    """Manager-side state for one barrier episode."""

    arrivals: List[Tuple[BarrierArrival, float]] = field(default_factory=list)
    #: ``dedup_key`` of every arrival counted so far.
    seen: set = field(default_factory=set)
    #: Set once the manager's own thread has arrived (and blocked).
    manager_arrived: bool = False
    manager_wake: Optional[object] = None  # the manager's Processor, when blocked


class BarrierSubsystem:
    """Per-processor barrier logic.

    :meth:`barrier` is the one episode skeleton (release at arrival,
    acquire at departure, the arrive/release events); a topology supplies
    :meth:`_rendezvous`, its ``_detail`` suffix for span details and the
    ``role`` its ``barrier_release`` events name.
    """

    _detail = ""

    def __init__(self, proc: "Processor", core: "LrcCore",
                 system: "TmkSystem") -> None:
        self.proc = proc
        self.core = core
        self.system = system
        self.pid = proc.pid
        self.cost = proc.cluster.cost
        self.nprocs = proc.cluster.nprocs
        self.role = "manager" if self.pid == _MANAGER else "client"
        #: The manager's vector time as of the last departure -- the
        #: client's estimate of what the manager already knows.
        self._last_barrier_vc: Tuple[int, ...] = (0,) * self.nprocs
        self._episodes: Dict[int, _Episode] = {}
        #: Mailbox-like slot for the client's departure.
        self._departure: Optional[BarrierDeparture] = None
        self._departure_wake: float = 0.0
        self._waiting = False
        #: Diagnostics.
        self.episodes_completed = 0
        self.wait_time = 0.0
        proc.register(CAT_BARRIER_ARRIVAL, self._on_arrival)
        proc.register(CAT_BARRIER_DEPARTURE, self._on_departure)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def barrier(self, bid: int):
        proc = self.proc
        yield YIELD
        self.core.close_interval()
        proc.compute(_LOCAL_BARRIER_CPU)
        t_arrive = proc.now
        if self.nprocs == 1:
            self.episodes_completed += 1
            return
        obs = proc.obs
        if obs is not None:
            obs.begin(proc.now, self.pid, "barrier", B_STALL_SYNC,
                      f"bid={bid}{self._detail}")
        events = proc.events
        if events is not None:
            events.barrier_arrive(self.pid, bid, proc.now)
        yield from self._rendezvous(bid, t_arrive)
        self.wait_time += proc.now - t_arrive
        self.episodes_completed += 1
        if obs is not None:
            obs.end(proc.now, self.pid)
        if events is not None:
            events.barrier_release(self.pid, bid, self.role, proc.now)

    def _rendezvous(self, bid: int, t_arrive: float):
        """Meet every other processor and merge what they wrote; returns
        a generator (here the role's own, with no frame in between)."""
        if self.pid == _MANAGER:
            return self._manager_arrive(bid, t_arrive)
        return self._client_arrive(bid)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _client_arrive(self, bid: int):
        proc = self.proc
        records = self.core.records_since(self._last_barrier_vc)
        arrival = BarrierArrival(barrier=bid, pid=self.pid,
                                 vc=tuple(self.core.vc), records=records)
        proc.send(self.core.udp, _MANAGER, CAT_BARRIER_ARRIVAL, arrival,
                  arrival.nbytes(self.cost, self.nprocs))
        self._waiting = True
        yield Block(f"barrier {bid}",
                    f"P{_MANAGER} (barrier manager)")
        self._waiting = False
        departure = self._departure
        self._departure = None
        if departure is None:
            raise AssertionError(f"P{self.pid}: woke from barrier {bid} "
                                 "without a departure message")
        if self._departure_wake > proc.now:
            proc.set_now(self._departure_wake)
        self.core.merge(departure.records, departure.vc)
        self._last_barrier_vc = departure.vc

    def _dup_suppress(self, category: str, name: str, value) -> None:
        """A re-delivered ``category`` message was ignored (fault plans
        only); the detail is rendered only when something subscribes."""
        if self.proc.events is not None:
            self.proc.events.dup_suppress(
                self.pid, f"{category} {name}={value}", self.proc.now)

    def _on_departure(self, delivery: Delivery) -> None:
        if not self._waiting:
            # A re-delivered departure after the client already left the
            # barrier; its contents were merged the first time.
            self._dup_suppress("barrier_departure", "bid",
                               delivery.payload.barrier)
            return
        self._departure = delivery.payload
        self._departure_wake = delivery.arrival + delivery.recv_cpu
        self.proc.unblock(delivery.arrival + delivery.recv_cpu)

    # ------------------------------------------------------------------
    # Manager side
    # ------------------------------------------------------------------
    def _episode(self, bid: int) -> _Episode:
        return self._episodes.setdefault(bid, _Episode())

    def _manager_arrive(self, bid: int, t_arrive: float):
        proc = self.proc
        episode = self._episode(bid)
        episode.manager_arrived = True
        if len(episode.arrivals) == self.nprocs - 1:
            # Everyone else already arrived; we are last.
            t_release = max([t_arrive] +
                            [t for _, t in episode.arrivals])
            obs = proc.obs
            if obs is not None:
                obs.begin(proc.now, self.pid, "send", B_WIRE,
                          f"barrier_departures bid={bid}")
            t_done = self._release_all(bid, episode, t_release)
            proc.set_now(t_done)
            if obs is not None:
                obs.end(proc.now, self.pid)
        else:
            self._waiting = True
            yield Block(f"barrier {bid} (manager)",
                        "remaining barrier arrivals")
            self._waiting = False
        self._last_barrier_vc = tuple(self.core.vc)

    def _on_arrival(self, delivery: Delivery) -> None:
        arrival: BarrierArrival = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        episode = self._episode(arrival.barrier)
        key = arrival.dedup_key()
        if key in episode.seen:
            # Re-delivered arrival (each processor arrives once per
            # episode): counting it twice would release the barrier early.
            self._dup_suppress("barrier_arrival", "key", key)
            return
        episode.seen.add(key)
        obs = self.proc.obs
        if obs is not None:
            obs.instant(delivery.arrival, self.pid, "barrier_arrival",
                        f"bid={arrival.barrier} from=P{arrival.pid}")
        episode.arrivals.append((arrival, delivery.arrival + service))
        if (episode.manager_arrived
                and len(episode.arrivals) == self.nprocs - 1):
            # The manager thread is blocked; release everyone from here.
            t_release = max(t for _, t in episode.arrivals)
            t_done = self._release_all(arrival.barrier, episode, t_release)
            self.proc.unblock(t_done)

    def _release_all(self, bid: int, episode: _Episode,
                     t_release: float) -> float:
        """Merge all arrivals and dispatch departures; returns the time the
        manager's own CPU is free."""
        arrivals = sorted(episode.arrivals, key=lambda a: a[0].pid)
        for arrival, _ in arrivals:
            self.core.merge(arrival.records, arrival.vc)
        t = t_release
        for arrival, _ in arrivals:
            records = self.core.records_since(arrival.vc)
            departure = BarrierDeparture(barrier=bid, vc=tuple(self.core.vc),
                                         records=records)
            t = self.core.udp.send(
                self.pid, arrival.pid, CAT_BARRIER_DEPARTURE, departure,
                departure.nbytes(self.cost, self.nprocs), t_ready=t)
        del self._episodes[bid]
        return t


# ----------------------------------------------------------------------
# The scalable topology (TmkConfig.barrier_kind="tree")
# ----------------------------------------------------------------------
#: Fan-in of the combining tree (k-ary, rooted at the barrier manager).
_TREE_ARITY = 4


class TreeBarrierSubsystem(BarrierSubsystem):
    """K-ary combining-tree barrier (``barrier_kind="tree"``).

    The centralized barrier serializes 2(n-1) messages *and* n-1 merges on
    one manager -- O(n) latency per episode with O(n)-sized vector times,
    which is the scaling wall the paper's 8-node testbed never hit.  The
    tree spreads the merge: each node combines its children's arrivals
    (records + element-wise-min vector time for the subtree), forwards one
    merged arrival to its parent, and fans the root's global departure
    back down.  Same O(n) message count, but the root handles only
    ``_TREE_ARITY`` messages and serial latency drops to O(log n).

    Departures select ``records_since(subtree min vc)`` -- a superset of
    what any subtree member lacks; merging a known record again is a
    no-op, so correctness needs no per-member bookkeeping.
    """

    _detail = " tree"

    def __init__(self, proc: "Processor", core: "LrcCore",
                 system: "TmkSystem") -> None:
        super().__init__(proc, core, system)
        self.role = "tree"
        self._parent: Optional[int] = (
            (self.pid - 1) // _TREE_ARITY if self.pid != _MANAGER else None)
        first = _TREE_ARITY * self.pid + 1
        self._children = list(range(first, min(first + _TREE_ARITY,
                                               self.nprocs)))
        #: bid -> number of episodes of that barrier this node completed.
        self._episode_no: Dict[int, int] = {}
        #: (bid, episode) -> in-flight episode state.
        self._tree: Dict[Tuple[int, int], dict] = {}
        self._seen_arrivals: set = set()
        proc.register(CAT_TREE_ARRIVAL, self._on_tree_arrival)
        proc.register(CAT_TREE_DEPARTURE, self._on_tree_departure)

    def _tree_state(self, bid: int, episode: int) -> dict:
        return self._tree.setdefault((bid, episode), {
            "arrivals": {},          # child pid -> TreeArrival
            "t": 0.0,                # latest arrival service-end time
            "waiting_children": False,
            "departure": None,
            "waiting_departure": False,
        })

    def _rendezvous(self, bid: int, t_arrive: float):
        proc = self.proc
        obs = proc.obs
        episode = self._episode_no.get(bid, 0)
        self._episode_no[bid] = episode + 1
        state = self._tree_state(bid, episode)
        own_vc = tuple(self.core.vc)

        # Phase 1: combine the children's subtrees.
        if self._children:
            if len(state["arrivals"]) < len(self._children):
                state["waiting_children"] = True
                yield Block(f"barrier {bid} (tree arrivals)",
                            "child subtree arrivals")
                state["waiting_children"] = False
            if state["t"] > proc.now:
                proc.set_now(state["t"])
            min_vc = list(own_vc)
            for child in sorted(state["arrivals"]):
                arrival = state["arrivals"][child]
                self.core.merge(arrival.records, arrival.vc)
                min_vc = [min(a, b) for a, b in zip(min_vc, arrival.min_vc)]
        else:
            min_vc = list(own_vc)

        if self._parent is None:
            # Root: global knowledge is complete; fan the departure down.
            t = proc.now
            if obs is not None:
                obs.begin(proc.now, self.pid, "send", B_WIRE,
                          f"tree_departures bid={bid}")
            for child in sorted(state["arrivals"]):
                arrival = state["arrivals"][child]
                departure = TreeDeparture(
                    barrier=bid, episode=episode, vc=tuple(self.core.vc),
                    records=self.core.records_since(arrival.min_vc))
                t = self.core.udp.send(
                    self.pid, child, CAT_TREE_DEPARTURE, departure,
                    departure.nbytes(self.cost, self.nprocs), t_ready=t)
            proc.set_now(t)
            if obs is not None:
                obs.end(proc.now, self.pid)
        else:
            # Interior/leaf: one merged arrival up, then wait for the
            # global departure and fan it down.
            up = TreeArrival(
                barrier=bid, episode=episode, pid=self.pid,
                vc=tuple(self.core.vc), min_vc=tuple(min_vc),
                records=self.core.records_since(self._last_barrier_vc))
            proc.send(self.core.udp, self._parent, CAT_TREE_ARRIVAL, up,
                      up.nbytes(self.cost, self.nprocs))
            state["waiting_departure"] = True
            yield Block(f"barrier {bid} (tree departure)",
                        f"P{self._parent} (tree parent)")
            state["waiting_departure"] = False
            departure = state["departure"]
            if departure is None:
                raise AssertionError(
                    f"P{self.pid}: woke from tree barrier {bid} without a "
                    "departure")
            self.core.merge(departure.records, departure.vc)
            t = proc.now
            for child in sorted(state["arrivals"]):
                arrival = state["arrivals"][child]
                down = TreeDeparture(
                    barrier=bid, episode=episode, vc=departure.vc,
                    records=self.core.records_since(arrival.min_vc))
                t = self.core.udp.send(
                    self.pid, child, CAT_TREE_DEPARTURE, down,
                    down.nbytes(self.cost, self.nprocs), t_ready=t)
            if t > proc.now:
                proc.set_now(t)

        self._last_barrier_vc = tuple(self.core.vc)
        del self._tree[(bid, episode)]

    # -- handlers ------------------------------------------------------
    def _on_tree_arrival(self, delivery: Delivery) -> None:
        arrival: TreeArrival = delivery.payload
        service = delivery.recv_cpu + self.cost.interrupt_cpu
        self.proc.charge_service(service)
        key = arrival.dedup_key()
        if key in self._seen_arrivals:
            self._dup_suppress("tree_arrival", "key", key)
            return
        self._seen_arrivals.add(key)
        state = self._tree_state(arrival.barrier, arrival.episode)
        state["arrivals"][arrival.pid] = arrival
        state["t"] = max(state["t"], delivery.arrival + service)
        if (state["waiting_children"]
                and len(state["arrivals"]) == len(self._children)):
            self.proc.unblock(state["t"])

    def _on_tree_departure(self, delivery: Delivery) -> None:
        departure: TreeDeparture = delivery.payload
        state = self._tree.get((departure.barrier, departure.episode))
        if (state is None or not state["waiting_departure"]
                or state["departure"] is not None):
            self._dup_suppress("tree_departure", "bid", departure.barrier)
            return
        state["departure"] = departure
        self.proc.unblock(delivery.arrival + delivery.recv_cpu)
