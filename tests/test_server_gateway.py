"""The asyncio gateway end to end: delivery, backpressure, plane failure.

Every test runs on a stock event loop via the ``run_async`` fixture
(per-test timeout included), so the suite needs no pytest-asyncio.
"""

import asyncio
import random

import pytest

from repro.backends import backend_names
from repro.core.pipeline import PipelinedBNBFabric, stuck_control_override
from repro.exceptions import (
    AdmissionRejectedError,
    GatewayClosedError,
    InputError,
)
from repro.faults import SwitchCoordinate, fault_mask_for
from repro.server import (
    AsyncGateway,
    GatewayConfig,
    PipelinedPlane,
    ResilientPlane,
)
from repro.service import ResilientFabric, ResilientVectorFabric

pytestmark = pytest.mark.asyncio_suite


class TestBasics:
    def test_single_send_round_trip(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                receipt = await gateway.send(5, payload="hello")
            return receipt

        receipt = run_async(scenario())
        assert receipt.destination == 5
        assert receipt.payload == "hello"
        assert receipt.mode == "clean"
        assert receipt.latency_cycles >= 1

    def test_bad_destination_raises_input_error(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                with pytest.raises(InputError):
                    await gateway.send(8)
                with pytest.raises(InputError):
                    await gateway.send(-1)

        run_async(scenario())

    def test_send_after_stop_raises_closed(self, run_async):
        async def scenario():
            gateway = AsyncGateway(GatewayConfig(m=3))
            await gateway.start()
            await gateway.stop()
            with pytest.raises(GatewayClosedError):
                await gateway.send(0)

        run_async(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(m=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, planes=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, queue_capacity=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, engine="simd")
        # Not engines: the batch plane is spelled "bnb", the backend
        # arena runs offline, never at construction, and krbenes /
        # bnb-object are analysis routers, not serving backends.
        for retired in ("batch", "auto", "krbenes", "bnb-object"):
            with pytest.raises(ValueError):
                GatewayConfig(m=3, engine=retired)
        # The resilient wrapper is engine-agnostic: combining it with
        # the vector engine builds ResilientVectorFabric planes.
        assert GatewayConfig(m=3, resilient=True, engine="vector").engine == (
            "vector"
        )

    def test_engine_selects_plane_kind(self, run_async):
        async def scenario(engine, resilient=False):
            config = GatewayConfig(m=3, engine=engine, resilient=resilient)
            async with AsyncGateway(config) as gateway:
                await gateway.send(2, payload="x")
                plane = gateway.stats()["planes"][0]
                return plane["kind"], plane["engine"], plane.get("backend")

        assert run_async(scenario("object")) == (
            "PipelinedPlane", "object", None
        )
        assert run_async(scenario("vector")) == (
            "PipelinedPlane", "vector", None
        )
        for name in backend_names():
            assert run_async(scenario(name)) == (
                "BackendPlane", "backend", name
            )
        assert run_async(scenario("object", resilient=True)) == (
            "ResilientPlane",
            "object",
            None,
        )
        assert run_async(scenario("vector", resilient=True)) == (
            "ResilientPlane",
            "vector",
            None,
        )


class TestConcurrentDelivery:
    def test_many_clients_all_delivered_exactly(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(7)
            async with AsyncGateway(config) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index
                        )
                        for index in range(400)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 400
        # Zero misdelivery: every receipt echoes its own payload.
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["delivered_words"] == 400
        assert stats["queues"]["max_depth"] <= 16

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_acceptance_1000_clients_m4(self, run_async, engine):
        """ISSUE acceptance: 1000 concurrent clients at m=4, zero
        misdelivered words, bounded queues under overload — on both
        the reference object engine and the compiled vector engine."""

        async def client(gateway, rng, cid, receipts):
            for k in range(2):
                receipt = await gateway.send_with_retry(
                    rng.randrange(16), payload=(cid, k), attempts=64
                )
                receipts.append(((cid, k), receipt))

        async def scenario():
            config = GatewayConfig(
                m=4, planes=2, queue_capacity=64, engine=engine
            )
            receipts = []
            async with AsyncGateway(config) as gateway:
                seeder = random.Random(42)
                rngs = [
                    random.Random(seeder.random()) for _ in range(1000)
                ]
                await asyncio.gather(
                    *(
                        client(gateway, rngs[cid], cid, receipts)
                        for cid in range(1000)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 2000
        assert all(
            receipt.payload == expected for expected, receipt in receipts
        )
        assert stats["delivered_words"] == 2000
        # Bounded queues: depth never exceeded the admission bound.
        assert stats["queues"]["max_depth"] <= 64
        assert stats["latency_cycles"]["p99"] is not None

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_acceptance_1000_clients_resilient_faulted(
        self, run_async, engine
    ):
        """ISSUE acceptance: 1000 clients at m=4 on resilient planes,
        with one plane killed outright and a stuck-control fault
        injected into another mid-flight — zero misdelivered words on
        either engine."""

        async def client(gateway, rng, cid, receipts):
            for k in range(2):
                receipt = await gateway.send_with_retry(
                    rng.randrange(16), payload=(cid, k), attempts=64
                )
                receipts.append(((cid, k), receipt))

        async def chaos(gateway):
            # Let traffic build, then kill one plane and break another.
            await gateway.wait_cycles(8)
            gateway.kill_plane(2, reason="acceptance plane-kill")
            gateway.inject_fault(0, (3, 0, 0, 0, 0), 1)

        async def scenario():
            config = GatewayConfig(
                m=4, planes=3, queue_capacity=64, engine=engine,
                resilient=True,
            )
            receipts = []
            async with AsyncGateway(config) as gateway:
                seeder = random.Random(42)
                rngs = [
                    random.Random(seeder.random()) for _ in range(1000)
                ]
                await asyncio.gather(
                    chaos(gateway),
                    *(
                        client(gateway, rngs[cid], cid, receipts)
                        for cid in range(1000)
                    ),
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 2000
        # Zero misdelivery despite the plane kill and the live fault.
        assert all(
            receipt.payload == expected for expected, receipt in receipts
        )
        assert stats["delivered_words"] == 2000
        assert stats["planes"][2]["healthy"] is False
        assert stats["planes"][0]["service_state"] == "quarantined"
        assert stats["planes"][0]["engine"] == engine
        assert stats["queues"]["max_depth"] <= 64

    def test_wait_cycles_advances_even_when_idle(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                start = gateway.cycle
                reached = await gateway.wait_cycles(5)
                return start, reached, gateway.cycle

        start, reached, now = run_async(scenario())
        assert reached >= start + 5
        assert now >= reached


class TestBackpressure:
    def test_overload_rejects_instead_of_buffering(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=2)
            async with AsyncGateway(config) as gateway:
                # Flood one destination without retry; the VOQ bound must
                # reject the excess at admission time.
                tasks = [
                    asyncio.ensure_future(gateway.send(3, payload=k))
                    for k in range(40)
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
                stats = gateway.stats()
            return done, stats

        done, stats = run_async(scenario())
        delivered = [r for r in done if not isinstance(r, Exception)]
        rejected = [r for r in done if isinstance(r, AdmissionRejectedError)]
        assert delivered and rejected
        assert len(delivered) + len(rejected) == 40
        assert stats["queues"]["max_depth"] <= 2
        assert stats["queues"]["rejected"] == len(rejected)

    def test_retry_after_hint_is_positive_and_honoured(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=1)
            async with AsyncGateway(config) as gateway:
                first = asyncio.ensure_future(gateway.send(2, payload="a"))
                await asyncio.sleep(0)
                try:
                    hint = None
                    await gateway.send(2, payload="b")
                except AdmissionRejectedError as error:
                    hint = error.retry_after_cycles
                # With retries the same word eventually lands.
                second = await gateway.send_with_retry(2, payload="b")
                await first
                return hint, second

        hint, second = run_async(scenario())
        if hint is not None:  # first word may already have ridden a frame
            assert hint >= 1
        assert second.payload == "b"


class TestPlaneFailure:
    def test_operator_kill_mid_run_keeps_delivery_total(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(11)
            async with AsyncGateway(config) as gateway:
                tasks = [
                    asyncio.ensure_future(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                    )
                    for index in range(300)
                ]
                # Let traffic get airborne, then kill a plane under it.
                await gateway.wait_cycles(3)
                stranded = gateway.kill_plane(0, reason="test kill")
                receipts = await asyncio.gather(*tasks)
                stats = gateway.stats()
            return stranded, receipts, stats

        stranded, receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        # The dead plane carried words; they were requeued, not dropped.
        assert stranded > 0
        assert stats["queues"]["requeued"] >= stranded
        healthy = [plane["healthy"] for plane in stats["planes"]]
        assert healthy == [False, True]
        # Everything after the kill rode the surviving plane.
        assert stats["planes"][1]["words_delivered"] > 0

    def test_faulty_plane_auto_quarantines_on_misdelivery(self, run_async):
        def factory(plane_id, m):
            if plane_id == 0:
                # A late-stage stuck switch: reliably misroutes.
                return PipelinedPlane(
                    plane_id,
                    m,
                    fabric=PipelinedBNBFabric(
                        m,
                        control_override=stuck_control_override(
                            2, 0, 0, 0, 0, 1
                        ),
                        retain_delivered=False,
                    ),
                )
            return PipelinedPlane(plane_id, m)

        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(13)
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
        # 100% delivery despite the physical fault...
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        # ...because the misdelivering plane was failed and drained.
        assert stats["planes"][0]["healthy"] is False
        assert "misdelivered" in stats["planes"][0]["failure"]
        assert stats["queues"]["requeued"] > 0

    def test_resilient_plane_absorbs_fault_without_dying(self, run_async):
        def factory(plane_id, m):
            if plane_id == 0:
                pipeline = PipelinedBNBFabric(
                    m,
                    control_override=stuck_control_override(2, 0, 0, 0, 0, 1),
                )
                return ResilientPlane(
                    plane_id, m, fabric=ResilientFabric(m, pipeline=pipeline)
                )
            return ResilientPlane(plane_id, m)

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True
            )
            rng = random.Random(17)
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(120)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        # The faulty plane stayed in the pool: its ResilientFabric
        # quarantined the primary and rode the Benes spare instead.
        assert stats["planes"][0]["healthy"] is True
        assert stats["planes"][0]["service_state"] == "quarantined"
        modes = stats["delivery_modes"]
        assert modes.get("failover", 0) + modes.get("degraded", 0) > 0

    def test_resilient_vector_plane_absorbs_fault_without_dying(
        self, run_async
    ):
        """The vector twin of the test above: a ResilientVectorFabric
        plane seeded with a fault mask quarantines its compiled primary
        and keeps delivering via the compiled Benes spare."""

        def factory(plane_id, m):
            if plane_id == 0:
                mask = fault_mask_for(
                    m, [(SwitchCoordinate(2, 0, 0, 0, 0), 1)]
                )
                return ResilientPlane(
                    plane_id,
                    m,
                    fabric=ResilientVectorFabric(m, fault_mask=mask),
                )
            return ResilientPlane(plane_id, m, fabric=ResilientVectorFabric(m))

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True,
                engine="vector",
            )
            rng = random.Random(17)
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(120)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["healthy"] is True
        assert stats["planes"][0]["engine"] == "vector"
        assert stats["planes"][1]["engine"] == "vector"
        assert stats["planes"][0]["service_state"] == "quarantined"
        modes = stats["delivery_modes"]
        assert modes.get("failover", 0) + modes.get("degraded", 0) > 0

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_inject_fault_quarantines_live_plane(self, run_async, engine):
        """Operator fault injection through the gateway API: the target
        plane walks detection -> quarantine -> failover while every
        word keeps getting delivered."""

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True,
                engine=engine,
            )
            rng = random.Random(23)
            async with AsyncGateway(config) as gateway:
                described = gateway.inject_fault(0, (2, 0, 0, 0, 0), 1)
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(120)
                    )
                )
                stats = gateway.stats()
            return described, receipts, stats

        described, receipts, stats = run_async(scenario())
        assert described["engine"] == engine
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["service_state"] == "quarantined"
        assert stats["planes"][1]["service_state"] == "healthy"

    def test_inject_fault_rejects_bad_targets(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3, planes=1)) as gateway:
                with pytest.raises(InputError):
                    gateway.inject_fault(5, (2, 0, 0, 0, 0), 1)
                # A plain (non-resilient) plane cannot take injections.
                with pytest.raises(InputError):
                    gateway.inject_fault(0, (2, 0, 0, 0, 0), 1)

        run_async(scenario())


class TestShutdown:
    def test_stop_drains_backlog(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=8)
            gateway = AsyncGateway(config)
            await gateway.start()
            rng = random.Random(19)
            tasks = [
                asyncio.ensure_future(
                    gateway.send_with_retry(rng.randrange(8), payload=k)
                )
                for k in range(40)
            ]
            await asyncio.sleep(0)
            await gateway.stop(drain=True)
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, gateway.stats()

        results, stats = run_async(scenario())
        # Drained shutdown delivers everything already admitted; words
        # rejected by a full queue during the shutdown race surface as
        # backpressure or closed-gateway errors, never as silent loss.
        for result in results:
            assert not isinstance(result, Exception) or isinstance(
                result, (AdmissionRejectedError, GatewayClosedError)
            )
        assert stats["queues"]["queued"] == 0

    def test_stats_are_json_safe(self, run_async):
        import json

        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3, planes=2)) as gateway:
                await gateway.send(1)
                return gateway.stats()

        stats = run_async(scenario())
        encoded = json.loads(json.dumps(stats))
        assert encoded["delivered_words"] == 1
        assert encoded["planes"][0]["kind"] == "PipelinedPlane"
