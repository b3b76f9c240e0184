"""Every timing constant of the simulated testbed, in one place.

The paper's testbed: 8 HP-735 workstations (99 MHz PA-RISC, 4 KB pages)
connected by a 100 Mbit/s FDDI ring.  TreadMarks processes talk over UDP
with a lightweight reliability layer; PVM processes use direct TCP
connections.  The constants below are calibrated to mid-1990s measurements
of those stacks (small-message UDP round trip of roughly half a millisecond,
memcpy on the order of 40 MB/s) -- see DESIGN.md section 2.

All times are virtual seconds; all sizes are bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.kernels.interface import WORD

__all__ = ["CostModel"]

#: Constants a size divides by: a zero page or MTU is no testbed at all.
_SIZES = ("page_size", "udp_mtu", "tcp_segment")


@dataclass(frozen=True)
class CostModel:
    """Machine, network, and protocol timing constants."""

    # -- memory system ---------------------------------------------------
    #: Virtual-memory page size (HP PA-RISC).
    page_size: int = 4096
    #: CPU cost of copying one byte (twin creation, pack/unpack, memcpy).
    copy_byte_cpu: float = 25e-9

    # -- FDDI ring --------------------------------------------------------
    #: 100 Mbit/s shared medium, bytes per second.
    bandwidth: float = 12.5e6
    #: Propagation plus media-access latency per transmission.
    wire_latency: float = 30e-6
    #: While a frame occupies the ring no other frame may start (the model
    #: serializes wire time; this switch exists for ablations).
    shared_medium: bool = True

    # -- UDP path (TreadMarks) --------------------------------------------
    #: Fixed per-datagram CPU cost on the sending host.
    udp_send_cpu: float = 150e-6
    #: Fixed per-datagram CPU cost on the receiving host.
    udp_recv_cpu: float = 150e-6
    #: Largest UDP datagram TreadMarks sends; larger payloads fragment.
    udp_mtu: int = 8192
    #: Bytes of UDP/IP + TreadMarks protocol header counted per datagram
    #: (the paper counts "the total amount of data", not just payload).
    udp_header_bytes: int = 40

    # -- TCP path (PVM direct connections) ---------------------------------
    #: Fixed per-user-message CPU cost on the sending host.
    tcp_send_cpu: float = 250e-6
    #: Fixed per-user-message CPU cost on the receiving host.
    tcp_recv_cpu: float = 250e-6
    #: Extra per-byte CPU in the TCP/IP stack on each side (checksums,
    #: socket-buffer copies).  TreadMarks' lightweight operation-specific
    #: UDP protocols avoid most of this, which is why its bulk transfers
    #: run faster per byte than PVM's TCP.
    tcp_byte_cpu: float = 60e-9
    #: TCP segments are streamed; framing overhead is charged per segment.
    tcp_segment: int = 8192
    tcp_header_bytes: int = 40

    # -- TreadMarks protocol costs -----------------------------------------
    #: Taking the access fault and entering the DSM library.
    fault_cpu: float = 80e-6
    #: Creating a twin (page copy) on first write to a writable page.
    twin_cpu: float = 60e-6
    #: Base cost of diffing a page against its twin, plus per-byte scan.
    diff_create_cpu: float = 20e-6
    diff_scan_byte_cpu: float = 15e-9
    #: Base cost of applying one diff to a page, plus per-byte patch.
    diff_apply_cpu: float = 10e-6
    diff_apply_byte_cpu: float = 15e-9
    #: Servicing an incoming request in the (simulated) signal handler;
    #: charged both to the response latency and to the serving CPU's clock.
    interrupt_cpu: float = 80e-6
    #: Fixed protocol bytes in a diff request beyond the header.
    diff_request_bytes: int = 24
    #: Per-diff envelope bytes in a diff response (interval id, page id, length).
    diff_envelope_bytes: int = 16
    #: Bytes per write notice carried on lock grants / barrier departures.
    write_notice_bytes: int = 8
    #: Bytes of vector timestamp per processor.
    vector_time_bytes: int = 4
    #: Fixed payload of lock request / grant and barrier arrival / departure.
    sync_message_bytes: int = 32

    # -- PVM library costs --------------------------------------------------
    #: Per-item overhead of the typed pack/unpack routines.
    pack_item_cpu: float = 5e-9
    #: Fixed cost of pvm_initsend / buffer setup.
    initsend_cpu: float = 20e-6

    def __post_init__(self) -> None:
        """Sizes >= 1, a page a power of two no smaller than the diff word,
        bandwidth > 0, every other constant finite and >= 0 (``not x >= 0``
        so that NaN is refused too)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SIZES:
                if not value >= 1:
                    raise ValueError(f"{f.name} must be >= 1, got {value!r}")
                if f.name == "page_size" and (value < WORD
                                              or value & (value - 1)):
                    raise ValueError(f"page_size must be a power of two "
                                     f">= {WORD}, got {value!r}")
            elif f.name == "bandwidth":
                if not value > 0:
                    raise ValueError(f"bandwidth must be > 0, got {value!r}")
            elif not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{f.name} must be finite and >= 0, got {value!r}")

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def wire_time(self, nbytes: int) -> float:
        """Time a frame of ``nbytes`` occupies the medium (excl. latency)."""
        return nbytes / self.bandwidth

    def udp_fragments(self, nbytes: int) -> int:
        """Number of datagrams needed for a ``nbytes`` payload."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.udp_mtu)

    def copy_cost(self, nbytes: int) -> float:
        return nbytes * self.copy_byte_cpu

    def variant(self, **overrides) -> "CostModel":
        """A copy of this model with some constants replaced (ablations)."""
        return replace(self, **overrides)

    @classmethod
    def paper_testbed(cls) -> "CostModel":
        """The default model: the paper's 8-node HP-735 / FDDI cluster."""
        return cls()
