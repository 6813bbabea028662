"""ringbench: async-I/O runtime architectures over SPSC ring instances,
with a deterministic simulated storage device and a benchmark CLI."""

__version__ = "0.1.0"

from .device import DeviceConfig, PollConfig, SimDevice, VirtualClock, \
    steady_state_iops
from .metrics import MetricsReport
from .ring import (ApiInstance, Completion, CompletionStatus, IoRequest,
                   OpKind, PushResult, RingQueue)

__all__ = [
    "ApiInstance", "Completion", "CompletionStatus", "DeviceConfig",
    "IoRequest", "MetricsReport", "OpKind", "PollConfig", "PushResult",
    "RingQueue", "SimDevice", "VirtualClock", "steady_state_iops",
    "__version__",
]
