"""Sampled verification on a pipelined plane over the vector fabric."""

import asyncio
import random

import pytest

from repro.core.pipeline_fast import VectorPipelinedFabric
from repro.server import (
    AsyncGateway,
    FrameScheduler,
    GatewayConfig,
    PipelinedPlane,
    VirtualOutputQueues,
)

pytestmark = pytest.mark.asyncio_suite


def _vector_plane(plane_id, m, **policy):
    return PipelinedPlane(
        plane_id,
        m,
        fabric=VectorPipelinedFabric(m, retain_delivered=False),
        **policy,
    )


def _full_frame(scheduler, voqs, n, cycle=1):
    for destination in range(n):
        voqs.admit(destination, 0)
    frame = scheduler.next_frame(voqs, cycle)
    assert frame is not None and frame.active == n
    return frame


def _run_plane(plane, frame):
    """Offer one frame and clock until it completes or the plane dies."""
    plane.offer(frame)
    for _ in range(plane.m + 2):
        completed, requeue = plane.step()
        if completed or requeue or not plane.healthy:
            return completed, requeue
    raise AssertionError("frame neither completed nor failed")


class TestVectorPlaneSampling:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _vector_plane(0, 3, verify_every=0)
        with pytest.raises(ValueError):
            _vector_plane(0, 3, spot_checks=-1)

    def test_full_verify_every_kth_frame(self):
        m, n = 3, 8
        plane = _vector_plane(0, m, verify_every=4, spot_checks=2)
        scheduler = FrameScheduler(n)
        voqs = VirtualOutputQueues(n, 16)
        for index in range(9):
            completed, requeue = _run_plane(
                plane, _full_frame(scheduler, voqs, n, cycle=index + 1)
            )
            assert completed and not requeue
        # Frames 0, 4, 8 got the full check; the other six a spot check.
        assert plane.full_verifies == 3
        assert plane.spot_verifies == 6
        assert plane.frames_delivered == 9
        info = plane.describe()
        assert info["engine"] == "vector"
        assert info["verify_every"] == 4

    def test_spot_check_catches_injected_misdelivery(self):
        """Corrupt deliveries starting after the first frame, so only
        the rotating spot checks can see it — they must."""
        m, n = 3, 8
        plane = _vector_plane(0, m, verify_every=1000, spot_checks=n)
        delivered = [0]

        def corrupt(tag, outputs):
            if delivered[0]:
                outputs[0], outputs[1] = outputs[1], outputs[0]
            delivered[0] += 1

        # Registered after the plane's own hook: it mutates the very
        # list the plane captured, before the plane verifies it.
        plane.fabric.add_delivery_hook(corrupt)
        scheduler = FrameScheduler(n)
        voqs = VirtualOutputQueues(n, 16)
        completed, requeue = _run_plane(
            plane, _full_frame(scheduler, voqs, n, cycle=1)
        )
        assert completed and plane.healthy  # frame 0 rides clean
        completed, requeue = _run_plane(
            plane, _full_frame(scheduler, voqs, n, cycle=2)
        )
        assert not completed
        assert plane.healthy is False
        assert "misdelivered" in plane.failure
        assert len(requeue) == n  # the corrupted frame's words requeue
        assert plane.spot_verifies == 1

    def test_gateway_survives_misdelivering_vector_plane(self, run_async):
        """ISSUE acceptance: sampled verification kills the bad plane,
        its words requeue, and the gateway still delivers 100%."""

        def factory(plane_id, m):
            plane = _vector_plane(plane_id, m, verify_every=2, spot_checks=2)
            if plane_id == 0:

                def corrupt(tag, outputs):
                    outputs[0], outputs[1] = outputs[1], outputs[0]

                plane.fabric.add_delivery_hook(corrupt)
            return plane

        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(23)
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(200)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["healthy"] is False
        assert "misdelivered" in stats["planes"][0]["failure"]
        assert stats["planes"][1]["healthy"] is True
        assert stats["queues"]["requeued"] > 0
