"""Configuration of the SC-ABD replication mode."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReplicationConfig"]


@dataclass(frozen=True)
class ReplicationConfig:
    """Knobs of the failure-masking quorum-replication mode.

    Frozen (hashable) so it can key the bench harness's run cache and
    round-trip through ``RunConfig.to_json``.
    """

    #: Number of dedicated page-replica servers added to the cluster.
    #: Quorums are majorities of this set, so ``replicas`` replicas mask
    #: up to ``(replicas - 1) // 2`` crashes (1 of 3, 2 of 5, ...).
    replicas: int = 3
    #: Fault-tolerance strategy this config selects.  Only ``"mask"``
    #: exists (omitting the replication config means no fault
    #: tolerance: a crash ends the run with ``NodeFailure``); the field
    #: is kept explicit so cached mask-mode results can never be
    #: confused with anything else.
    mode: str = "mask"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.mode != "mask":
            raise ValueError(f"unknown replication mode {self.mode!r} "
                             "(only 'mask' is supported)")

    @property
    def majority(self) -> int:
        """Quorum size: any two quorums of this size intersect."""
        return self.replicas // 2 + 1

    @property
    def f_max(self) -> int:
        """Replica crashes the quorum system masks before aborting."""
        return (self.replicas - 1) // 2
