"""End-to-end wire smoke: boot ``repro serve``, speak both framings.

The CI counterpart of ``tests/test_wire_framing.py``'s differential
parity test, but against the *real deployment surface*: a ``repro
serve`` subprocess (bnb batch engine) on a loopback port, exercised
through the public :class:`repro.client.GatewayClient` over the JSON
framing and the binary framing in turn.  Each framing runs hello /
ping / stats / send / send_batch; the comparable response fields must
match across framings, every batched word must deliver, and the
server must report the negotiated protocol version.

Usage::

    python tools/wire_smoke.py [--port PORT]

Exit code 0 on success, 1 on any mismatch or failure.  No
dependencies beyond the package itself — CI runs it right after the
unit suite.
"""

from __future__ import annotations

import argparse
import asyncio
import socket
import subprocess
import sys
import time

import numpy as np

from repro.client import GatewayClient
from repro.server.framing import PROTOCOL_VERSION, jsonable

N = 64
M = 6
WORDS = 512  # 8 full frames per send_batch


async def exercise(port: int, binary: bool) -> dict:
    """One framing's worth of traffic; returns comparable fields."""
    async with GatewayClient("127.0.0.1", port, binary=binary) as client:
        assert client.protocol_version == PROTOCOL_VERSION, (
            f"negotiated {client.protocol_version}, "
            f"compiled {PROTOCOL_VERSION}"
        )
        assert "batch" in client.features and "binary" in client.features
        pong = await client.ping()
        rng = np.random.default_rng(3 if binary else 5)
        dests = np.concatenate(
            [rng.permutation(N) for _ in range(WORDS // N)]
        ).astype(np.int64)
        batch = await client.send_batch(dests, retry=16)
        assert batch["delivered"] == WORDS, (
            f"{batch['rejected']} of {WORDS} words rejected"
        )
        single = await client.send(7, payload="smoke", server_retry=True)
        stats = await client.stats()
        return jsonable(
            {
                "n": client.n,
                "protocol_version": list(client.protocol_version),
                "ping_ok": pong["ok"],
                "batch_count": batch["count"],
                "batch_delivered": batch["delivered"],
                "batch_mode_table": batch["mode_table"],
                "send_dest": single["dest"],
                "send_mode": single["mode"],
                "stats_n": stats["stats"]["n"],
                "stats_version": stats["protocol_version"],
            }
        )


def wait_for_port(port: int, deadline: float = 20.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), 0.5).close()
            return
        except OSError:
            time.sleep(0.2)
    raise TimeoutError(f"server on port {port} never came up")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv[1:])
    port = args.port or free_port()

    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(N),
            "--engine",
            "bnb",
            "--port",
            str(port),
            "--duration",
            "120",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_port(port)
        via_json = asyncio.run(exercise(port, binary=False))
        via_binary = asyncio.run(exercise(port, binary=True))
        if via_json != via_binary:
            print("FRAMING MISMATCH")
            print(f"  json:   {via_json}")
            print(f"  binary: {via_binary}")
            return 1
        print(f"json framing:   {via_json}")
        print(f"binary framing: {via_binary}")
        print(
            f"wire smoke OK: both framings delivered {WORDS} batched "
            f"words + 1 single word on protocol "
            f"{'.'.join(map(str, PROTOCOL_VERSION))}"
        )
        return 0
    except Exception as error:  # noqa: BLE001 — smoke must report, not crash
        print(f"wire smoke FAILED: {type(error).__name__}: {error}")
        return 1
    finally:
        server.terminate()
        try:
            output, _ = server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
        if output:
            print("--- server log ---")
            print(output.rstrip())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
