"""repro.server — the resilient network serving tier.

A stdlib-only asyncio daemon (:mod:`repro.server.daemon`) fronts named
multi-tenant collections (:mod:`repro.server.tenants`) over a
length-prefixed JSON protocol (:mod:`repro.server.protocol`), with a
bundled retrying client (:mod:`repro.server.client`) and a thread
harness for tests and benchmarks (:mod:`repro.server.harness`).
See ``docs/server.md``.
"""

from repro.server.client import CLIENT_RETRY, DaemonClient, ServerError, TransportError
from repro.server.daemon import QueryDaemon, ServerConfig
from repro.server.harness import DaemonHandle, start_daemon_thread
from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    read_frame_sock,
    write_frame_sock,
)
from repro.server.tenants import Tenant, TenantRegistry, UnknownTenantError

__all__ = [
    "CLIENT_RETRY",
    "DaemonClient",
    "DaemonHandle",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "QueryDaemon",
    "ServerConfig",
    "ServerError",
    "Tenant",
    "TenantRegistry",
    "TransportError",
    "UnknownTenantError",
    "encode_frame",
    "error_response",
    "ok_response",
    "read_frame",
    "read_frame_sock",
    "start_daemon_thread",
    "write_frame_sock",
]
