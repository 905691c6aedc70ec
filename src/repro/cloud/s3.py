"""S3-like checkpoint store.

The paper stores BLCR checkpoints in Amazon S3 ($0.03/GB-month in 2014)
and observes that storage adds < 0.1% to the total bill.  This model
tracks object sizes and storage-time so experiments can verify that
claim, and provides a transfer-time estimate used by the checkpoint
overhead model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import CheckpointError
from ..units import BYTES_PER_GB, check_nonnegative

#: Storage price in $/GB-month (the paper's 2014 S3 rate) and the
#: month length it is prorated over; the replay's storage bill reads both.
PRICE_PER_GB_MONTH = 0.03
HOURS_PER_MONTH = 730.0


@dataclass
class S3Object:
    """One stored object (a coordinated checkpoint image)."""

    key: str
    size_bytes: float
    stored_at: float  # hours
    deleted_at: Optional[float] = None

    def storage_gb_hours(self, now: float) -> float:
        end = self.deleted_at if self.deleted_at is not None else now
        if end < self.stored_at:
            raise CheckpointError(
                f"object {self.key!r} deleted before it was stored"
            )
        return (self.size_bytes / BYTES_PER_GB) * (end - self.stored_at)


@dataclass
class S3Store:
    """A bucket with 2014 pricing and a simple bandwidth model.

    Attributes
    ----------
    price_per_gb_month:
        Storage price; $0.03/GB-month per the paper.
    bandwidth_mbps:
        Effective per-instance transfer bandwidth to S3 in MB/s, used to
        estimate checkpoint upload/download time.
    """

    price_per_gb_month: float = PRICE_PER_GB_MONTH
    bandwidth_mbps: float = 50.0
    #: A single bucket/prefix sustains only so much parallel throughput
    #: (2014-era S3); a 128-instance fleet cannot upload 128x faster.
    aggregate_mbps: float = 400.0
    objects: Dict[str, S3Object] = field(default_factory=dict)
    #: Every object ever stored (overwritten versions keep accruing the
    #: storage-hours they consumed while live).
    archive: list = field(default_factory=list)

    def put(self, key: str, size_bytes: float, now: float) -> S3Object:
        """Store (or overwrite) an object at time ``now`` (hours)."""
        check_nonnegative("size_bytes", size_bytes)
        old = self.objects.get(key)
        if old is not None and old.deleted_at is None:
            old.deleted_at = now
        obj = S3Object(key=key, size_bytes=size_bytes, stored_at=now)
        self.objects[key] = obj
        self.archive.append(obj)
        return obj

    def get(self, key: str) -> S3Object:
        obj = self.objects.get(key)
        if obj is None or obj.deleted_at is not None:
            raise CheckpointError(f"no live object {key!r} in store")
        return obj

    def delete(self, key: str, now: float) -> None:
        self.get(key).deleted_at = now

    def transfer_hours(self, size_bytes: float) -> float:
        """Time to move ``size_bytes`` to/from the store, in hours."""
        check_nonnegative("size_bytes", size_bytes)
        seconds = size_bytes / (self.bandwidth_mbps * 1024.0**2)
        return seconds / 3600.0

    def storage_cost(self, now: float) -> float:
        """Total storage dollars accrued up to time ``now``."""
        gb_hours = sum(o.storage_gb_hours(now) for o in self.archive)
        return gb_hours * self.price_per_gb_month / HOURS_PER_MONTH
