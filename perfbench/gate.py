"""The correctness gate every benchmark run passes through.

A run is correct only when all of these hold:

* before timing, the compiled routing backend agrees with the crossbar
  oracle on the workload's own first frames;
* every word offered is either delivered or counted as failed, and the
  gateways together report exactly as many delivered words as the load
  generator saw acknowledged (no loss, no duplicates);
* single-word receipts echo the destination they were sent to;
* each gateway's ``stats()`` shows every plane healthy, only ``clean``
  delivery modes, ``offered == accepted + rejected`` and no requeues.

Checks record failures instead of raising, so one run reports every
broken invariant at once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np


class Gate:
    """Collects correctness failures for one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def oracle(self, backend: Any, frames: np.ndarray) -> None:
        """Route *frames* (rows of full permutations) through *backend*
        and compare each row with the crossbar's arrival order."""
        from repro.baselines.crossbar import Crossbar
        from repro.core.words import Word

        n = frames.shape[1]
        crossbar = Crossbar(n)
        routed = backend.route_frame_batch(frames)
        for row, addresses in enumerate(frames):
            outputs = crossbar.route(
                [
                    Word(address=int(address), payload=line)
                    for line, address in enumerate(addresses)
                ]
            )
            expected = np.fromiter(
                (word.payload for word in outputs), dtype=np.int64, count=n
            )
            if not np.array_equal(routed[row], expected):
                bad = np.flatnonzero(routed[row] != expected)
                self.fail(
                    f"backend {backend.name!r} disagrees with the crossbar "
                    f"on frame {row}, outputs {bad[:8].tolist()}"
                )
                return

    def receipts(self, sent: Sequence[int], echoed: Sequence[int]) -> None:
        """Each delivered single word must echo its destination."""
        wrong = [
            index
            for index, (dest, echo) in enumerate(zip(sent, echoed))
            if dest != echo
        ]
        if len(sent) != len(echoed):
            self.fail(f"{len(sent)} words sent, {len(echoed)} receipts")
        if wrong:
            first = wrong[0]
            self.fail(
                f"{len(wrong)} receipt(s) misdelivered; word {first} sent "
                f"to {sent[first]} came back from {echoed[first]}"
            )

    def accounting(
        self, offered: int, delivered: int, failed: int, server_delivered: int
    ) -> None:
        """Every offered word is delivered or failed, and the servers
        delivered exactly what the clients saw acknowledged."""
        if delivered + failed != offered:
            self.fail(
                f"{offered} words offered but {delivered} delivered + "
                f"{failed} failed"
            )
        if server_delivered != delivered:
            self.fail(
                f"gateways delivered {server_delivered} words, clients "
                f"saw {delivered}"
            )

    def gateway_stats(self, stats: Dict[str, Any]) -> None:
        node = stats.get("node_id")
        for plane in stats["planes"]:
            if not plane["healthy"]:
                self.fail(f"{node}: plane {plane['id']} unhealthy: "
                          f"{plane['failure']}")
        modes = set(stats["delivery_modes"]) - {"clean"}
        if modes:
            self.fail(f"{node}: non-clean delivery modes {sorted(modes)}")
        queues = stats["queues"]
        if queues["offered"] != queues["accepted"] + queues["rejected"]:
            self.fail(
                f"{node}: offered {queues['offered']} != accepted "
                f"{queues['accepted']} + rejected {queues['rejected']}"
            )
        if queues["requeued"]:
            self.fail(f"{node}: {queues['requeued']} words requeued")
