"""Execution architectures over ring instances."""

from .common import (ArrivalWorkload, ExecCosts, PoolShutdown, RequestHandle,
                     RequestWorkload, RingConfig, TaskWorkload,
                     TimeoutExceeded, WorkloadNotPartitionable)
from .direct_access import run_direct_access
from .driver import RunOptions
from .pool import (EXEC_INLINE_CALLBACKS, EXEC_IO_THREADS,
                   POLICY_LEAST_LOADED, POLICY_ROUND_ROBIN, THREADING_PAIR,
                   THREADING_SINGLE, ControllerConfig, IoPool, open_pool,
                   run_dynamic_pool, run_static_pool)
from .shared_nothing import run_shared_nothing

__all__ = [
    "ArrivalWorkload", "ControllerConfig", "EXEC_INLINE_CALLBACKS",
    "EXEC_IO_THREADS", "ExecCosts", "IoPool", "POLICY_LEAST_LOADED",
    "POLICY_ROUND_ROBIN", "PoolShutdown", "RequestHandle", "RequestWorkload",
    "RingConfig", "RunOptions", "THREADING_PAIR", "THREADING_SINGLE",
    "TaskWorkload", "TimeoutExceeded", "WorkloadNotPartitionable",
    "open_pool", "run_direct_access", "run_dynamic_pool",
    "run_shared_nothing", "run_static_pool",
]
