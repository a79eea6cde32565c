"""Serving on the backends: pinned engines and prewarm.

``engine="bnb"`` / ``"msorter"`` pin a serving backend, and the compile-once caches are warm before the first frame —
a server boot pays the cold start, traffic never does.
"""

import numpy as np
import pytest

from repro.backends import backend_names, compiled_backend
from repro.core.plan import compiled_plan
from repro.obs import GatewayInstrumentation, Registry
from repro.server import AsyncGateway, BackendPlane, GatewayConfig

pytestmark = pytest.mark.asyncio_suite


def _config(engine, m=3, planes=1, capacity=64, window=8):
    return GatewayConfig(
        m=m,
        planes=planes,
        queue_capacity=capacity,
        engine=engine,
        batch_window=window,
    )


def _burst(m, frames, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.permutation(1 << m) for _ in range(frames)]
    ).astype(np.int64)


class TestConfigValidation:
    def test_registered_backend_names_are_valid_engines(self):
        for name in backend_names():
            assert _config(name).engine == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="registered"):
            _config("warp-drive")

    def test_msorter_has_no_resilient_variant(self):
        with pytest.raises(ValueError, match="no resilient variant"):
            GatewayConfig(m=3, engine="msorter", resilient=True)
        # The bnb kernel does: it runs the ResilientBNBFabric lifecycle.
        assert GatewayConfig(m=3, engine="bnb", resilient=True).resilient


class TestPinnedBackendServing:
    @pytest.mark.parametrize("engine", ["bnb", "msorter"])
    def test_full_delivery_on_pinned_backend(self, run_async, engine):
        async def scenario():
            async with AsyncGateway(_config(engine)) as gateway:
                dests = _burst(3, frames=8)
                result = await gateway.send_batch(dests)
                return result, gateway.stats()

        result, stats = run_async(scenario())
        assert result.delivered == 64
        assert result.mode_table == ["clean"]
        assert stats["engine"] == engine
        assert stats["backend"] == engine
        assert "arena" not in stats
        plane = stats["planes"][0]
        assert plane["engine"] == "backend"
        assert plane["backend"] == engine
        assert plane["batches_routed"] >= 1

    def test_planes_share_one_compiled_engine(self):
        gateway = AsyncGateway(_config("msorter", planes=3))
        engines = {id(plane.backend) for plane in gateway.planes}
        assert engines == {id(compiled_backend("msorter", 3))}


class TestObservability:
    def test_backend_info_gauge_exported(self, run_async):
        async def scenario():
            gateway = AsyncGateway(_config("msorter"))
            instr = GatewayInstrumentation(
                gateway, registry=Registry()
            ).attach()
            async with gateway:
                await gateway.send_batch(_burst(3, frames=2))
            return instr

        instr = run_async(scenario())
        snap = instr.metrics_snapshot()
        samples = snap["repro_backend_info"]["samples"]
        assert [
            (s["labels"]["backend"], s["labels"]["m"], s["value"])
            for s in samples
        ] == [("msorter", "3", 1.0)]
        text = instr.render_prometheus()
        assert 'repro_backend_info{backend="msorter",m="3"} 1' in text

    def test_object_gateway_reports_object_backend(self):
        gateway = AsyncGateway(GatewayConfig(m=3, engine="object"))
        instr = GatewayInstrumentation(
            gateway, registry=Registry()
        ).attach()
        snap = instr.metrics_snapshot()
        labels = snap["repro_backend_info"]["samples"][0]["labels"]
        assert labels["backend"] == "bnb-object"
        assert gateway.stats()["backend"] == "bnb-object"


class TestPrewarm:
    """Boot pays every compile; traffic hits only warm caches."""

    def test_backend_gateway_compiles_at_boot_not_under_traffic(
        self, run_async
    ):
        compiled_plan.cache_clear()
        compiled_backend.cache_clear()
        gateway = AsyncGateway(_config("msorter"))
        # Construction compiled both the shared routing plan and the
        # chosen backend (the prewarm hook) — before any frame exists.
        assert compiled_plan.cache_info().currsize >= 1
        assert compiled_backend.cache_info().currsize >= 1
        plan_misses = compiled_plan.cache_info().misses
        backend_misses = compiled_backend.cache_info().misses

        async def scenario():
            async with gateway:
                return await gateway.send_batch(_burst(3, frames=8))

        result = run_async(scenario())
        assert result.delivered == 64
        # No compile happened while traffic flowed.
        assert compiled_plan.cache_info().misses == plan_misses
        assert compiled_backend.cache_info().misses == backend_misses

    def test_batch_gateway_prewarms_the_plan(self):
        compiled_plan.cache_clear()
        AsyncGateway(_config("bnb"))
        assert compiled_plan.cache_info().currsize >= 1

    def test_first_frame_latency_shows_no_cold_start(self, run_async):
        # The serving-visible form of the prewarm contract: the first
        # frame's delivery latency (in cycles — the gateway's own
        # stage timeline) equals the steady state, no warm-up bubble.
        async def scenario():
            async with AsyncGateway(_config("msorter", window=1)) as gw:
                receipts = []
                for k in range(6):
                    receipts.append(await gw.send(k % gw.n, payload=k))
                return [r.latency_cycles for r in receipts]

        latencies = run_async(scenario())
        assert latencies[0] == min(latencies)

    def test_standalone_backend_plane_accepts_a_name(self):
        plane = BackendPlane(0, 3, backend="msorter")
        assert plane.backend is compiled_backend("msorter", 3)
        assert plane.describe()["backend"] == "msorter"
