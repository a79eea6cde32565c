"""Per-tenant QoS in the admission path: weighted scheduling, starvation
protection, accounting, and the wire/metrics surfaces (docs/traffic.md)."""

import asyncio

import pytest

from repro.exceptions import AdmissionRejectedError, InputError
from repro.server import (
    DEFAULT_TENANT,
    AsyncGateway,
    FrameScheduler,
    GatewayConfig,
    VirtualOutputQueues,
)
from repro.server.voq import CLASS, INDEX, MAX_TENANT_CLASSES


def pop_line0(voqs, scheduler=None):
    """The word on line 0 of the next frame — with one destination
    backlogged, that destination's head — as ``(tenant, batch index)``."""
    frame = (scheduler or FrameScheduler(voqs.n)).next_frame(voqs, 0)
    word = frame.words[0, 0]
    return voqs.class_names[int(word[CLASS])], int(word[INDEX])


class TestTenantQueueScheduling:
    def test_swrr_serves_in_weight_ratio(self):
        voqs = VirtualOutputQueues(
            4, capacity=64, tenants={"gold": 3, "bronze": 1}
        )
        for k in range(16):
            voqs.admit(0, k, tenant="gold")
            voqs.admit(0, k, tenant="bronze")
        served = [pop_line0(voqs)[0] for _ in range(16)]
        # Smoothed weighted round-robin: exactly weight-proportional
        # service over any window while both classes stay backlogged.
        assert served.count("gold") == 12
        assert served.count("bronze") == 4
        # Interleaved, not batched: bronze is served inside the window.
        assert "bronze" in served[:5]

    def test_single_backlogged_class_bypasses_the_scheduler(self):
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"gold": 7})
        voqs.admit(1, 0, tenant="gold")
        assert pop_line0(voqs)[0] == "gold"

    def test_unknown_tenant_auto_registers_with_weight_one(self):
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"gold": 2})
        voqs.admit(2, 0, tenant="walkin")
        rows = voqs.tenant_snapshot()
        assert rows["walkin"]["weight"] == 1
        assert rows["walkin"]["queued"] == 1

    def test_new_tenant_names_stop_at_the_class_bound(self):
        # A client inventing a tenant name per request must not grow the
        # rings (or the per-frame class scan) without limit.
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"gold": 2})
        refused = 0
        for k in range(200):
            try:
                voqs.admit(k % 4, k, tenant=f"walkin-{k}")
            except AdmissionRejectedError:
                pass
            except InputError:
                refused += 1
        assert refused == 200 - (MAX_TENANT_CLASSES - 1)
        assert len(voqs.tenants) == MAX_TENANT_CLASSES
        assert voqs._ring.shape[0] == MAX_TENANT_CLASSES
        assert voqs._depth.shape[0] == MAX_TENANT_CLASSES
        # Refused words are not offered; known classes still admit.
        assert voqs.offered == MAX_TENANT_CLASSES - 1
        voqs.admit(0, 0, tenant="gold")
        assert voqs.tenant_snapshot()["gold"]["accepted"] == 1

    def test_starvation_rescue_overrides_the_weighted_pick(self):
        voqs = VirtualOutputQueues(
            4,
            capacity=256,
            tenants={"gold": 100, "bronze": 1},
            starvation_cycles=10,
        )
        # One ancient bronze word behind a wall of much newer gold.
        voqs.admit(0, 0, tenant="bronze")
        for k in range(64):
            voqs.admit(0, 100 + k, tenant="gold")
        first_tenant, _ = pop_line0(voqs)
        assert first_tenant == "bronze"
        assert voqs.tenant_snapshot()["bronze"]["starvation_rescues"] == 1

    def test_credit_resets_when_a_tenant_queue_empties(self):
        voqs = VirtualOutputQueues(
            1, capacity=8, tenants={"gold": 2, "bronze": 1}
        )
        voqs.admit(0, 0, tenant="gold")
        voqs.admit(0, 0, tenant="bronze")
        scheduler = FrameScheduler(1)
        # Credits gold 2, bronze 1: gold wins and is debited to -1, then
        # its queue empties and the debt is forgiven (an idle tenant
        # banks nothing, in either direction).
        assert pop_line0(voqs, scheduler)[0] == "gold"
        for _ in range(3):
            voqs.admit(0, 0, tenant="gold")
        # Gold 0 + 2 ties bronze 1 + 1: the tie goes to the tenant
        # registered first.  Keeping the debt would hand it to bronze.
        assert pop_line0(voqs, scheduler)[0] == "gold"

    def test_fifo_order_preserved_within_a_tenant(self):
        voqs = VirtualOutputQueues(4, capacity=16, tenants={"a": 1, "b": 1})
        for k in range(4):
            voqs.admit(3, k, tenant="a", index=k)
        served = []
        while voqs.total:
            served.append(pop_line0(voqs)[1])
        assert served == [0, 1, 2, 3]

    def test_requeue_front_returns_to_the_owning_tenant(self):
        voqs = VirtualOutputQueues(4, capacity=16, tenants={"a": 1, "b": 8})
        voqs.admit(0, 0, tenant="a")
        popped = FrameScheduler(4).next_frame(voqs, 0).stranded()
        voqs.requeue_front(popped.dests, popped.words)
        rows = voqs.tenant_snapshot()
        assert rows["a"]["requeued"] == 1
        assert rows["a"]["queued"] == 1

    def test_tenant_rows_sum_to_the_global_counters(self):
        # An unknown tenant whose words are all rejected still gets a
        # row: the rows account for every offered word.
        voqs = VirtualOutputQueues(4, 1, tenants={"gold": 2})
        for tenant in ("gold", "walkin"):
            voqs.admit_batch([0, 0], 0, tenant=tenant)
        snap = voqs.snapshot()
        assert (snap["offered"], snap["accepted"], snap["rejected"]) == (
            4, 1, 3
        )
        rows = snap["tenants"]
        for key in ("offered", "accepted", "rejected"):
            assert sum(row[key] for row in rows.values()) == snap[key]
        assert rows["walkin"]["rejected"] == 2
        assert voqs.tenants == {"gold": 2, "walkin": 1}

    def test_tenant_mode_validates_weights(self):
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"bad": 0})
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"": 2})
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"b": True})
        too_many = {f"t{k}": 1 for k in range(MAX_TENANT_CLASSES + 1)}
        with pytest.raises(ValueError, match="at most"):
            VirtualOutputQueues(4, capacity=8, tenants=too_many)

    def test_untenanted_mode_has_no_tenant_surface(self):
        voqs = VirtualOutputQueues(4, capacity=8)
        assert voqs.tenants is None
        assert voqs.tenant_snapshot() is None
        assert "tenants" not in voqs.snapshot()

    def test_snapshot_counts_offered_accepted_per_tenant(self):
        voqs = VirtualOutputQueues(2, capacity=1, tenants={"a": 1})
        voqs.admit(0, 0, tenant="a")
        with pytest.raises(AdmissionRejectedError):  # full -> reject
            voqs.admit(0, 0, tenant="a")
        rows = voqs.tenant_snapshot()
        assert rows["a"]["offered"] == 2
        assert rows["a"]["accepted"] == 1
        assert rows["a"]["rejected"] == 1


class TestGatewayTenants:
    def run(self, coro):
        return asyncio.run(coro)

    def test_config_validates_tenants(self):
        with pytest.raises(ValueError):
            GatewayConfig(m=2, tenants={"x": 0})
        with pytest.raises(ValueError):
            GatewayConfig(m=2, tenants={"x": 1}, starvation_cycles=0)

    def test_send_batch_refuses_a_tenant_past_the_class_bound(self):
        async def scenario():
            full = {f"t{k}": 1 for k in range(MAX_TENANT_CLASSES)}
            config = GatewayConfig(m=2, queue_capacity=8, tenants=full)
            async with AsyncGateway(config) as gateway:
                with pytest.raises(InputError, match="tenant 'stranger'"):
                    await gateway.send_batch([0, 1], tenant="stranger")
                result = await gateway.send_batch([0, 1], tenant="t3")
                return result, gateway

        result, gateway = self.run(scenario())
        assert result.delivered == 2
        assert "stranger" not in gateway.tenant_snapshot()
        assert not gateway._trackers

    def test_send_attributes_latency_to_the_tenant(self):
        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=8, tenants={"gold": 4, "bronze": 1}
            )
            async with AsyncGateway(config) as gateway:
                await asyncio.gather(
                    *(
                        gateway.send_with_retry(k % 4, tenant="gold")
                        for k in range(8)
                    ),
                    *(
                        gateway.send_with_retry(k % 4, tenant="bronze")
                        for k in range(8)
                    ),
                )
                return gateway.tenant_snapshot()

        rows = self.run(scenario())
        for name in ("gold", "bronze"):
            assert rows[name]["delivered"] == 8
            latency = rows[name]["latency_cycles"]
            assert latency["samples"] == 8
            assert latency["p50"] is not None

    def test_stats_embeds_tenant_rows_only_in_tenant_mode(self):
        async def tenanted():
            config = GatewayConfig(m=2, tenants={"gold": 2})
            async with AsyncGateway(config) as gateway:
                await gateway.send_with_retry(1, tenant="gold")
                return gateway.stats()

        async def bare():
            async with AsyncGateway(GatewayConfig(m=2)) as gateway:
                await gateway.send_with_retry(1)
                return gateway.stats()

        stats = self.run(tenanted())
        assert stats["tenants"]["gold"]["delivered"] == 1
        assert self.run(bare())["tenants"] is None

    def test_send_batch_carries_the_tenant(self):
        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 2}
            )
            async with AsyncGateway(config) as gateway:
                result = await gateway.send_batch(
                    [0, 1, 2, 3], retry_attempts=8, tenant="gold"
                )
                return result.delivered, gateway.tenant_snapshot()

        delivered, rows = self.run(scenario())
        assert delivered == 4
        assert rows["gold"]["delivered"] == 4
        # The default class never carried a word, so it has no row
        # (rows appear on first use) or an all-zero one.
        assert rows.get(DEFAULT_TENANT, {"delivered": 0})["delivered"] == 0


class TestTenantMetrics:
    def test_repro_tenant_series_exported(self):
        from repro.obs import GatewayInstrumentation, Registry

        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 8, "bronze": 1}
            )
            async with AsyncGateway(config) as gateway:
                instrumentation = GatewayInstrumentation(
                    gateway, registry=Registry()
                ).attach()
                await asyncio.gather(
                    *(
                        gateway.send_with_retry(k % 4, tenant="gold")
                        for k in range(6)
                    )
                )
                return instrumentation.registry.render_prometheus()

        text = asyncio.run(scenario())
        assert 'repro_tenant_weight{tenant="gold"} 8' in text
        assert 'repro_tenant_delivered_total{tenant="gold"} 6' in text
        assert (
            'repro_tenant_latency_cycles_quantile{tenant="gold",q="p99"}'
            in text
        )


class TestWireTenantField:
    def test_send_and_batch_accept_tenant_over_the_wire(self):
        from repro.client import GatewayClient
        from repro.server import GatewayServer

        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 4}
            )
            async with AsyncGateway(config) as gateway:
                server = await GatewayServer(gateway).start()
                try:
                    async with GatewayClient(
                        "127.0.0.1", server.port
                    ) as client:
                        await client.send(1, tenant="gold", server_retry=True)
                        response = await client.send_batch(
                            [0, 1, 2], tenant="gold", retry=8
                        )
                        assert int(response["delivered"]) == 3
                        hello_features = client.features
                    return gateway.tenant_snapshot(), hello_features
                finally:
                    await server.stop()

        rows, features = asyncio.run(scenario())
        assert rows["gold"]["delivered"] == 4
        assert "tenants" in features

    def test_bad_tenant_field_is_rejected(self):
        from repro.server.ops import _tenant_field

        assert _tenant_field({}) is None
        assert _tenant_field({"tenant": "gold"}) == "gold"
        with pytest.raises(InputError):
            _tenant_field({"tenant": ""})
        with pytest.raises(InputError):
            _tenant_field({"tenant": 7})
