"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so that callers can catch
one base class.  Device errors mirror the failure modes of a real
heterogeneous system (out of memory, missing data on a device), while plan
and SQL errors report user mistakes at query-build time.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (misaligned BATs, bad widths)."""


class BitWidthError(StorageError):
    """A bit width is outside the supported 1..64 range or too small for the data."""


class DecompositionError(StorageError):
    """A bitwise decomposition request is invalid for the target column."""


class DeviceError(ReproError):
    """Base class for device-layer failures."""


class DeviceFailure(DeviceError):
    """A simulated device (shard) failed to execute its fragment.

    Raised by the fault-injection layer (crashed shards, flaky fragments)
    and by the sharded executor when a query cannot be answered because
    every contributing shard is down.  ``transient`` distinguishes faults
    a retry may outlive from permanent crashes.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_index: int | None = None,
        transient: bool = False,
    ) -> None:
        self.shard_index = shard_index
        self.transient = transient
        super().__init__(message)


class TransientAllocationError(DeviceError):
    """A device allocation failed transiently under memory pressure.

    Unlike :class:`DeviceOutOfMemory` (a hard capacity violation), this
    models the allocator hiccups of a busy device — the allocation is
    expected to succeed when retried after backoff.
    """


class DeviceOutOfMemory(DeviceError):
    """An allocation exceeded the device's memory capacity."""

    def __init__(self, device: str, requested: int, available: int) -> None:
        self.device = device
        self.requested = requested
        self.available = available
        super().__init__(
            f"device {device!r}: requested {requested} bytes, "
            f"only {available} available"
        )


class DataNotResident(DeviceError):
    """An operator needed data on a device where it is not resident."""


class PlanError(ReproError):
    """A logical or physical plan is malformed."""


class BindError(PlanError):
    """A name in a query could not be resolved against the catalog."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class ExecutionError(ReproError):
    """An operator failed at run time (type mismatch, misaligned inputs)."""


class BoundOverflowError(ExecutionError):
    """An interval bound left int64, where its arithmetic would wrap.

    Raised by :class:`~repro.core.intervals.IntervalColumn` arithmetic on
    inexact bounds; the executor then has no bound for that expression and
    computes its exact value as the classic path does (wrapping included).
    """


class EmptyInputError(ExecutionError):
    """An aggregate has no input to take its value from.

    ``min`` / ``max`` of no row and ``avg`` over an empty group, raised by
    :func:`repro.core.aggregates.fold` and nowhere else.  To a merge of
    partial results (shard fragments, base + delta parts) a part that
    raises it contributes nothing; the merge raises it again, with the
    message one run over all the rows gives, when every part did.
    """


class AdmissionError(ExecutionError):
    """A served query can never be admitted (or was not admitted in time).

    Raised at submit time when a query's expected device scratch exceeds
    the pool's total capacity (it could never fit, no matter how long it
    waits), and at batch time when a queued query outlives the scheduler's
    configured admission timeout — fail fast instead of backpressuring
    forever.
    """


class RefinementError(ExecutionError):
    """A refinement operator's preconditions did not hold.

    Raised, e.g., when a translucent join is attempted on inputs that violate
    the subset or same-permutation conditions of Algorithm 1.
    """
