"""Observability layer: span timelines, time attribution, trace export.

The paper's analysis goes beyond the speedup curves: it explains *why*
TreadMarks loses time to PVM through four mechanisms (separation of
synchronization and data transfer, extra diff-request messages, false
sharing, diff accumulation).  This package turns the simulator's flat
message counts into the same causal story:

* :mod:`repro.obs.timeline` -- nested spans (``page_fault`` ->
  ``diff_request`` -> ``wire`` -> ``diff_apply``, ...), zero overhead
  when disabled, with an optional ring-buffer cap;
* :mod:`repro.obs.profile` -- exclusive per-processor time buckets
  (compute, wire, protocol, stall-on-sync, stall-on-data, replication)
  that sum to each processor's measured time, plus the attribution of
  TreadMarks stall time to the paper's four mechanisms;
* :mod:`repro.obs.perfetto` -- Chrome/Perfetto ``trace.json`` export
  and a trace-event schema validator;
* :mod:`repro.obs.core` -- the :class:`Obs` facade the runtime layers
  call and the :class:`ObsConfig` knob that enables it.
"""

from repro.obs.core import (BUCKETS, B_COMPUTE, B_PROTOCOL, B_STALL_DATA,
                            B_STALL_SYNC, B_WIRE, Obs, ObsConfig)
from repro.obs.perfetto import (to_chrome_trace, validate_chrome_trace,
                                write_chrome_trace)
from repro.obs.profile import (MechanismAttribution, ProcessorProfile,
                               RunProfile, TimeProfiler, build_profile,
                               render_profile)
from repro.obs.timeline import Timeline, TimelineEvent

__all__ = [
    "BUCKETS",
    "B_COMPUTE",
    "B_PROTOCOL",
    "B_STALL_DATA",
    "B_STALL_SYNC",
    "B_WIRE",
    "MechanismAttribution",
    "Obs",
    "ObsConfig",
    "ProcessorProfile",
    "RunProfile",
    "TimeProfiler",
    "Timeline",
    "TimelineEvent",
    "build_profile",
    "render_profile",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
