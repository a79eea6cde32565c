"""The public async client for the gateway wire protocol.

:class:`GatewayClient` is the supported way to talk to a running
``repro serve`` gateway — the CLI's ``stats``/``faults --connect``
subcommands, the wire benchmark, and the protocol tests all speak
through it instead of hand-rolling JSON lines over raw sockets.

The client speaks either framing of :mod:`repro.server.protocol`:

* ``binary=True`` (default) — length-prefixed binary frames
  (:mod:`repro.server.framing`): batched ``int64`` arrays cross the
  wire packed, not as JSON digit strings.  This is the framing the
  ≥10× wire-throughput target is measured on.
* ``binary=False`` — the JSON-lines debug framing: one JSON object
  per line, trivially greppable with ``nc``/``socat``.

On :meth:`connect` the client performs the ``hello`` negotiation and
exposes the result (:attr:`protocol_version`, :attr:`features`,
:attr:`n`).  The compatibility rule is enforced server-side: a server
refuses a client asking for a newer *major* and ignores unknown request
fields, so a same-major client can always talk to a newer-minor server.

Requests are correlated by id, so any number of coroutines can share
one client; responses may arrive out of order (a slow ``send`` never
blocks a ``stats`` probe).  Error envelopes surface as
:class:`~repro.exceptions.GatewayRequestError` carrying the stable
slug; :meth:`send` can retry ``admission-rejected`` itself, honouring
the server's ``retry_after_cycles`` hint.  A socket that drops with
requests pending fails them all with
:class:`~repro.exceptions.GatewayDisconnectedError` — the stable
``gateway-disconnected`` slug (still a :class:`ConnectionError`), so
failover logic can branch on it without parsing messages.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (
    GatewayDisconnectedError,
    GatewayRequestError,
    InputError,
)
from .server.framing import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_body,
    encode_frame,
    jsonable,
    unpack_header,
)
from .server.ops import REGISTRY
from .server.voq import destination_array

__all__ = ["GatewayClient"]

#: ``send_batch`` response fields that are arrays on the wire; the
#: client normalizes them to int64 numpy arrays in both framings.
_BATCH_ARRAY_FIELDS = (
    "statuses",
    "planes",
    "latencies",
    "frames",
    "retry_after",
    "modes",
)


class GatewayClient:
    """Async client for one gateway connection, either framing.

    Usage::

        async with GatewayClient("127.0.0.1", 9000) as client:
            receipt = await client.send(3, payload="hi")
            result = await client.send_batch([0, 1, 2, 3])

    One client is one TCP connection; share it freely between
    coroutines (requests interleave by id) but not between event loops.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        binary: bool = True,
        seconds_per_cycle: float = 0.001,
    ) -> None:
        self.host = host
        self.port = port
        self.binary = binary
        #: The client's guess at wall-clock seconds per gateway cycle,
        #: used to turn ``retry_after_cycles`` hints into backoff
        #: sleeps.  The default matches the serve loop's idle cadence;
        #: it only shapes politeness, not correctness.
        self.seconds_per_cycle = seconds_per_cycle
        #: Filled by the ``hello`` negotiation on :meth:`connect`.
        self.protocol_version: Optional[Tuple[int, int]] = None
        self.features: Tuple[str, ...] = ()
        self.n: Optional[int] = None
        self.ops: Dict[str, int] = {
            name: spec.code for name, spec in REGISTRY.items()
        }
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._next_id = 1
        self._closing = False
        self._dead: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "GatewayClient":
        """Open the connection and run the ``hello`` negotiation."""
        if self._writer is not None:
            raise InputError("client already connected")
        # Large send_batch responses (JSON framing) exceed asyncio's
        # default 64 KiB line limit; cap streams at the wire cap instead.
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self._closing = False
        self._dead = None
        self._reader_task = asyncio.ensure_future(self._read_loop())
        hello = await self.request(
            "hello", version=list(PROTOCOL_VERSION)
        )
        self.protocol_version = tuple(hello["protocol_version"])
        self.features = tuple(hello["features"])
        self.n = hello["n"]
        # The server's op table wins over the compiled-in one, so a
        # newer server's added ops are immediately callable.
        self.ops = dict(hello["ops"])
        return self

    async def aclose(self) -> None:
        """Close the connection; pending requests fail cleanly."""
        self._closing = True
        writer, self._writer = self._writer, None
        task, self._reader_task = self._reader_task, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._fail_pending(GatewayDisconnectedError("client closed"))

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    # ------------------------------------------------------------------
    # The request core
    # ------------------------------------------------------------------
    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Issue one op and await its response body.

        Returns the decoded response dict on ``ok: true``; raises
        :class:`~repro.exceptions.GatewayRequestError` (carrying the
        stable slug and the full response) otherwise.
        """
        writer = self._writer
        if writer is None:
            raise InputError("client is not connected")
        if self._dead is not None:
            # The read loop already died; a new future would never fire.
            if isinstance(self._dead, GatewayDisconnectedError):
                raise self._dead
            raise GatewayDisconnectedError(str(self._dead)) from self._dead
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            if self.binary:
                opcode = self.ops.get(op)
                if opcode is None:
                    raise InputError(
                        f"op {op!r} unknown to both client and server"
                    )
                frame = encode_frame(opcode, fields, request_id=request_id)
            else:
                body = {"op": op, "id": request_id, **jsonable(fields)}
                frame = (json.dumps(body) + "\n").encode("utf-8")
            try:
                async with self._write_lock:
                    writer.write(frame)
                    await writer.drain()
            except (ConnectionResetError, OSError) as error:
                raise GatewayDisconnectedError(
                    str(error) or repr(error)
                ) from error
            response = await future
        finally:
            self._pending.pop(request_id, None)
            # A write failure can race the read loop failing this same
            # future; mark its exception retrieved so the loop's copy
            # never surfaces as an unretrieved-exception warning.
            if future.done() and not future.cancelled():
                future.exception()
        if not response.get("ok"):
            raise GatewayRequestError(
                response.get("error", "unknown"), response
            )
        return response

    async def _read_loop(self) -> None:
        reader = self._reader
        assert reader is not None
        failure: Exception = GatewayDisconnectedError(
            "connection closed by server"
        )
        try:
            if self.binary:
                while True:
                    raw = await reader.readexactly(HEADER.size)
                    header = unpack_header(raw)
                    body = await reader.readexactly(header.body_len)
                    response = decode_body(header, body)
                    response.setdefault("id", header.request_id)
                    self._deliver(response)
            else:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    if not line.strip():
                        continue
                    self._deliver(json.loads(line))
        except asyncio.CancelledError:
            failure = GatewayDisconnectedError("client closed")
            raise
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError) as error:
            failure = GatewayDisconnectedError(str(error) or repr(error))
        except Exception as error:  # desync / malformed response
            failure = error
        finally:
            self._dead = failure
            self._fail_pending(failure)

    def _deliver(self, response: Dict[str, Any]) -> None:
        future = self._pending.get(response.get("id"))
        if future is not None and not future.done():
            future.set_result(response)
        # Responses for ids we no longer wait on (cancelled callers,
        # the server's parting desync error frame) are dropped.

    def _fail_pending(self, failure: Exception) -> None:
        if self._closing:
            failure = GatewayDisconnectedError("client closed")
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()

    # ------------------------------------------------------------------
    # The ops
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def hello(
        self, version: Optional[Sequence[int]] = None
    ) -> Dict[str, Any]:
        """Re-run the negotiation (done automatically on connect)."""
        fields = {} if version is None else {"version": list(version)}
        return await self.request("hello", **fields)

    async def stats(self) -> Dict[str, Any]:
        """The gateway's counters snapshot (``response["stats"]``)."""
        return await self.request("stats")

    async def metrics(self, format: str = "json") -> Dict[str, Any]:
        return await self.request("metrics", format=format)

    async def drain(self) -> Dict[str, Any]:
        """Ask the node to stop admitting while it serves its backlog."""
        return await self.request("drain")

    async def rejoin(self) -> Dict[str, Any]:
        """Reverse a :meth:`drain`: the node admits again."""
        return await self.request("rejoin")

    async def shard_map(
        self, doc: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Fetch the node's cluster shard map, or install *doc*.

        Without *doc* this is the cluster client's bootstrap/refresh
        path (``response["map"]`` is ``None`` on a standalone node);
        with *doc* it is the router's push path — the node keeps
        whichever document carries the newest ``version``.
        """
        fields = {} if doc is None else {"map": doc}
        return await self.request("shard_map", **fields)

    async def inject(
        self, plane: int, coordinate: Sequence[int], value: int = 1
    ) -> Dict[str, Any]:
        return await self.request(
            "inject",
            plane=plane,
            coordinate=[int(axis) for axis in coordinate],
            value=value,
        )

    async def send(
        self,
        dest: int,
        payload: Any = None,
        *,
        retry: bool = False,
        max_attempts: int = 16,
        server_retry: bool = False,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Send one word; optionally retry through backpressure.

        With ``retry=True`` the client re-offers an
        ``admission-rejected`` word up to *max_attempts* times, sleeping
        ``retry_after_cycles * seconds_per_cycle`` between attempts —
        the client-side half of the backpressure contract.  Any other
        error slug raises immediately.  ``server_retry=True`` asks the
        gateway to wait out its own backpressure instead (no extra wire
        round trips); the two compose.  ``tenant`` names the word's QoS
        class on a tenant-configured gateway (``docs/traffic.md``).
        """
        fields: Dict[str, Any] = {"dest": dest, "payload": payload}
        if tenant is not None:
            fields["tenant"] = tenant
        if server_retry:
            fields["retry"] = True
        attempts = max_attempts if retry else 0
        while True:
            try:
                return await self.request("send", **fields)
            except GatewayRequestError as error:
                if error.slug != "admission-rejected" or attempts <= 0:
                    raise
                attempts -= 1
                hint = max(1, error.retry_after_cycles)
                await asyncio.sleep(
                    min(1.0, hint * self.seconds_per_cycle)
                )

    async def send_batch(
        self,
        dests: Any,
        *,
        retry: int = 0,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Send a whole batch of words in one request.

        *dests* is any 1-D int sequence (float, bool or object input
        raises :class:`InputError` before anything is sent); over the
        binary framing it crosses the wire as one packed int64 array.
        *retry* is the **server-side** re-admission attempt count (the
        gateway waits out its own ``retry_after`` hints between rounds,
        far cheaper than a wire round trip per retry).  The per-word
        result arrays (``statuses``, ``latencies``, ...) come back as
        int64 numpy arrays in both framings.  ``tenant`` names the
        batch's QoS class on a tenant-configured gateway.
        """
        array = destination_array(dests, "dests")
        fields: Dict[str, Any] = {"retry": retry}
        if tenant is not None:
            fields["tenant"] = tenant
        if self.binary:
            fields["dests"] = array
        else:
            fields["dests"] = array.tolist()
        response = await self.request("send_batch", **fields)
        for key in _BATCH_ARRAY_FIELDS:
            if key in response:
                response[key] = np.asarray(response[key], dtype=np.int64)
        return response
