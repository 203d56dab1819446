"""repro.net — the explicit communication boundary between nodes.

Transports that charge wire costs and time overlay hops
(:mod:`repro.net.transport`), and a wrapper that degrades the link
(:mod:`repro.net.faults`).
"""

from repro.net.faults import FaultInjectingTransport
from repro.net.transport import InProcessTransport, Transport

__all__ = [
    "FaultInjectingTransport",
    "InProcessTransport",
    "Transport",
]
