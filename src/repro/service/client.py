"""Blocking client for the ``repro serve`` protocol.

One socket, one request in flight at a time, responses matched by the
echoed request id.  Useful from tests, benchmarks, and scripts::

    with ServiceClient(host, port) as client:
        client.install("phone-1", app_dict)
        findings = client.analyze("phone-1")

Errors the server reports come back as :class:`ServiceError` carrying
the protocol error kind.

Every successful response's envelope fields are kept on the client:
``last_trace_id`` is the trace id the server echoed (or minted) for the
most recent request, ``last_cost`` that request's own cost: what its
device's cost account grew by while it ran (``None`` for non-device
ops).  Pass ``trace_id=...`` to :meth:`ServiceClient.request` to join an
existing trace instead of starting one per request; the cost stays per
request either way.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional

from repro.service.protocol import MAX_LINE_BYTES


class ServiceError(RuntimeError):
    """A protocol-level error response from the server."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


class ServiceClient:
    """A synchronous line-delimited JSON client (TCP or UNIX socket)."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        if socket_path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            if host is None or port is None:
                raise ValueError("need host+port or socket_path")
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self.last_trace_id: Optional[str] = None
        self.last_cost: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def request(self, op: str, **operands: Any) -> Dict[str, Any]:
        """Send one request; returns the ``result`` or raises."""
        self._next_id += 1
        message = {"id": self._next_id, "op": op, **operands}
        line = json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
        if len(line) > MAX_LINE_BYTES:
            raise ServiceError(
                "line_too_long", f"request exceeds {MAX_LINE_BYTES} bytes"
            )
        self._file.write(line)
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ServiceError("internal", "connection closed by server")
        response = json.loads(raw.decode("utf-8"))
        if response.get("ok"):
            self.last_trace_id = response.get("trace_id")
            self.last_cost = response.get("cost")
            return response.get("result", {})
        error = response.get("error") or {}
        raise ServiceError(
            error.get("kind", "internal"), error.get("message", "unknown")
        )

    # -- convenience wrappers ------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def healthz(self) -> Dict[str, Any]:
        return self.request("healthz")

    def install(self, device: str, app: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("install", device=device, app=app)

    def update(self, device: str, app: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("update", device=device, app=app)

    def uninstall(self, device: str, package: str) -> Dict[str, Any]:
        return self.request("uninstall", device=device, package=package)

    def grant(
        self, device: str, package: str, permission: str
    ) -> Dict[str, Any]:
        return self.request(
            "grant", device=device, package=package, permission=permission
        )

    def revoke(
        self, device: str, package: str, permission: str
    ) -> Dict[str, Any]:
        return self.request(
            "revoke", device=device, package=package, permission=permission
        )

    def analyze(self, device: str) -> Dict[str, Any]:
        return self.request("analyze", device=device)

    def policies(self, device: str) -> List[Dict[str, Any]]:
        return self.request("policies", device=device)["policies"]

    def decide(
        self,
        device: str,
        kind: str,
        event: Dict[str, Any],
        context: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "decide", device=device, kind=kind, event=event, context=context
        )

    def audit(self, device: str) -> Dict[str, Any]:
        return self.request("audit", device=device)

    def status(self, device: Optional[str] = None) -> Dict[str, Any]:
        if device is None:
            return self.request("status")
        return self.request("status", device=device)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


__all__ = ["ServiceClient", "ServiceError"]
