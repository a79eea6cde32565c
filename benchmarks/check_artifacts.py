"""Schema-check the JSON benchmark artifacts under ``benchmarks/out/``.

CI runs this after the benchmark smoke jobs: every ``.json`` artifact
must parse, and the known artifact families must carry their required
keys with sane values — so a benchmark refactor that silently changes
an artifact's shape (and breaks downstream trend tracking) fails the
build instead of landing.

Usage::

    python benchmarks/check_artifacts.py [out_dir]

Exit code 0 when every artifact validates, 1 otherwise (missing
directory, no artifacts, parse failure, or schema violation).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Dict, List


def _require(
    condition: bool, artifact: str, detail: str, errors: List[str]
) -> None:
    if not condition:
        errors.append(f"{artifact}: {detail}")


def check_gateway_load(data: Dict[str, Any], name: str, errors: List[str]) -> None:
    _require(isinstance(data.get("sweep"), list), name, "'sweep' must be a list", errors)
    for row in data.get("sweep", []):
        for key in (
            "m",
            "n",
            "offered_load",
            "steady_fill",
            "words_delivered",
            "words_accepted",
            "words_rejected",
            "sustained_words_per_sec",
            "max_queue_depth",
        ):
            _require(key in row, name, f"sweep row missing {key!r}", errors)
        if "steady_fill" in row:
            _require(
                0.0 <= row["steady_fill"] <= 1.0,
                name,
                f"fill {row['steady_fill']} outside [0, 1]",
                errors,
            )
        if {"words_delivered", "words_accepted"} <= row.keys():
            _require(
                row["words_delivered"] == row["words_accepted"],
                name,
                "delivered != accepted (words were lost)",
                errors,
            )


def check_gateway_plane_kill(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    for key in ("admitted", "delivered", "delivery_ratio", "requeued_words"):
        _require(key in data, name, f"missing {key!r}", errors)
    _require(
        data.get("delivery_ratio") == 1.0,
        name,
        f"delivery_ratio {data.get('delivery_ratio')!r} != 1.0",
        errors,
    )


def check_probe_counts(data: Any, name: str, errors: List[str]) -> None:
    _require(
        isinstance(data, (list, dict)) and bool(data),
        name,
        "expected a non-empty JSON container",
        errors,
    )


#: filename -> validator; anything else just has to parse.
def check_vector_pipeline(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    sweep = data.get("sweep")
    _require(
        isinstance(sweep, list) and bool(sweep),
        name,
        "'sweep' must be a non-empty list",
        errors,
    )
    for row in sweep or []:
        for key in (
            "m",
            "n",
            "cycles_timed",
            "object_cycles_per_sec",
            "vector_cycles_per_sec",
            "speedup",
        ):
            _require(key in row, name, f"sweep row missing {key!r}", errors)
        if "speedup" in row:
            _require(
                row["speedup"] > 1.0,
                name,
                f"m={row.get('m')} speedup {row['speedup']} is not a win",
                errors,
            )
    gateway = data.get("gateway", {})
    for key in ("engine", "steady_fill", "words_delivered", "words_accepted"):
        _require(key in gateway, name, f"gateway missing {key!r}", errors)
    if "steady_fill" in gateway:
        _require(
            0.0 <= gateway["steady_fill"] <= 1.0,
            name,
            f"gateway fill {gateway['steady_fill']} outside [0, 1]",
            errors,
        )
    if {"words_delivered", "words_accepted"} <= gateway.keys():
        _require(
            gateway["words_delivered"] == gateway["words_accepted"],
            name,
            "gateway delivered != accepted (words were lost)",
            errors,
        )


def check_obs_overhead(data: Dict[str, Any], name: str, errors: List[str]) -> None:
    for key in (
        "m",
        "n",
        "engine",
        "offered_load",
        "samples_per_side",
        "baseline_fill",
        "instrumented_fill",
        "baseline_median_cycle_seconds",
        "instrumented_median_cycle_seconds",
        "throughput_ratio",
        "overhead",
        "overhead_budget",
    ):
        _require(key in data, name, f"missing {key!r}", errors)
    for key in ("baseline_fill", "instrumented_fill"):
        if key in data:
            _require(
                data[key] >= 0.9,
                name,
                f"{key} {data[key]} below the 0.9 acceptance bar",
                errors,
            )
    if {"overhead", "overhead_budget"} <= data.keys():
        _require(
            data["overhead"] < data["overhead_budget"],
            name,
            f"overhead {data['overhead']} >= budget {data['overhead_budget']}",
            errors,
        )


def check_fault_recovery_vector(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    sweep = data.get("sweep")
    _require(
        isinstance(sweep, list) and bool(sweep),
        name,
        "'sweep' must be a non-empty list",
        errors,
    )
    for row in sweep or []:
        for key in (
            "m",
            "n",
            "batches",
            "healthy_object_words_per_sec",
            "healthy_vector_words_per_sec",
            "failover_object_words_per_sec",
            "failover_vector_words_per_sec",
            "healthy_speedup",
            "failover_speedup",
            "recovered_delivery",
        ):
            _require(key in row, name, f"sweep row missing {key!r}", errors)
        if "recovered_delivery" in row:
            _require(
                row["recovered_delivery"] == 1.0,
                name,
                f"m={row.get('m')} recovered_delivery "
                f"{row['recovered_delivery']} != 1.0 (words were lost)",
                errors,
            )
    _require(
        "headline_speedup" in data,
        name,
        "missing 'headline_speedup'",
        errors,
    )
    if "headline_speedup" in data:
        _require(
            data["headline_speedup"] >= 5.0,
            name,
            f"headline_speedup {data['headline_speedup']} below the "
            "5x acceptance bar",
            errors,
        )


def check_wire_protocol(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    for key in (
        "m",
        "n",
        "engine",
        "batch_window",
        "baseline_words_per_sec",
        "binary",
        "json",
        "sustained_words_per_sec",
        "speedup_vs_baseline",
        "object_pipeline_parity_words",
    ):
        _require(key in data, name, f"missing {key!r}", errors)
    _require(
        data.get("m", 0) >= 6,
        name,
        f"m {data.get('m')!r} below the m>=6 acceptance size",
        errors,
    )
    _require(
        data.get("engine") == "bnb",
        name,
        f"engine {data.get('engine')!r} is not the bnb batch dataplane",
        errors,
    )
    if "speedup_vs_baseline" in data:
        _require(
            data["speedup_vs_baseline"] >= 10.0,
            name,
            f"speedup {data['speedup_vs_baseline']} below the 10x "
            "acceptance bar",
            errors,
        )
    _require(
        data.get("object_pipeline_parity_words", 0) > 0,
        name,
        "batch kernel was not cross-checked against the object pipeline",
        errors,
    )
    for leg in ("binary", "json"):
        block = data.get(leg)
        if isinstance(block, dict):
            for key in ("words", "elapsed_seconds", "words_per_sec"):
                _require(
                    key in block, name, f"{leg} leg missing {key!r}", errors
                )


def check_cluster_soak(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    for key in (
        "nodes",
        "node_n",
        "n_global",
        "requested_words",
        "delivered_words",
        "delivery_rate",
        "misdeliveries",
        "killed_node",
        "map_version",
        "words_per_second",
        "client_counters",
        "node_states",
    ):
        _require(key in data, name, f"missing {key!r}", errors)
    _require(
        data.get("nodes", 0) >= 4,
        name,
        f"nodes {data.get('nodes')!r} below the >=4 acceptance size",
        errors,
    )
    _require(
        data.get("requested_words", 0) >= 1_000_000,
        name,
        f"requested_words {data.get('requested_words')!r} below the "
        ">=1M acceptance soak",
        errors,
    )
    if {"requested_words", "delivered_words"} <= data.keys():
        _require(
            data["delivered_words"] >= data["requested_words"],
            name,
            "delivered < requested (words were lost across failover)",
            errors,
        )
    _require(
        data.get("delivery_rate", 0) >= 1.0,
        name,
        f"delivery_rate {data.get('delivery_rate')!r} != 1.0",
        errors,
    )
    _require(
        data.get("misdeliveries", 1) == 0,
        name,
        f"misdeliveries {data.get('misdeliveries')!r} != 0",
        errors,
    )
    _require(
        bool(data.get("killed_node")),
        name,
        "no node was killed mid-run; the soak proved nothing about "
        "failover",
        errors,
    )
    _require(
        data.get("map_version", 0) >= 2,
        name,
        f"map_version {data.get('map_version')!r} never advanced — the "
        "death did not reshard",
        errors,
    )


def check_backend_arena(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    for key in ("backends", "cells", "verified_frames", "spread_bar"):
        _require(key in data, name, f"missing {key!r}", errors)
    cells = data.get("cells", [])
    _require(
        isinstance(cells, list) and bool(cells),
        name,
        "'cells' must be a non-empty list",
        errors,
    )
    spread_bar = data.get("spread_bar", 1.2)
    decisive = 0
    for cell in cells:
        for key in ("m", "workload", "winner", "spread", "seconds_per_frame"):
            _require(key in cell, name, f"cell missing {key!r}", errors)
        table = cell.get("seconds_per_frame", {})
        _require(
            isinstance(table, dict) and bool(table),
            name,
            "cell 'seconds_per_frame' must be a non-empty table",
            errors,
        )
        for backend, cost in table.items():
            _require(
                isinstance(cost, (int, float)) and cost > 0.0,
                name,
                f"cost for {backend!r} not a positive number",
                errors,
            )
        if table and "winner" in cell:
            _require(
                cell["winner"] == min(table, key=table.__getitem__),
                name,
                f"winner {cell['winner']!r} is not the cheapest cell entry",
                errors,
            )
        if cell.get("spread", 0.0) >= spread_bar:
            decisive += 1
    required = data.get("spread_cells_required", 2)
    _require(
        decisive >= required,
        name,
        f"only {decisive} cell(s) with spread >= {spread_bar} "
        f"(need {required}); the measured choice never mattered",
        errors,
    )
    verified = data.get("verified_frames", {})
    for backend in data.get("backends", []):
        checks = verified.get(backend, {})
        _require(
            bool(checks) and all(count > 0 for count in checks.values()),
            name,
            f"backend {backend!r} has no recorded oracle verification",
            errors,
        )


def check_traffic_scenarios(
    data: Dict[str, Any], name: str, errors: List[str]
) -> None:
    """The ``bench_traffic_scenarios.py`` SLO gates (docs/traffic.md)."""
    scenarios = data.get("scenarios")
    _require(
        isinstance(scenarios, dict) and bool(scenarios),
        name,
        "'scenarios' must be a non-empty object",
        errors,
    )
    if not isinstance(scenarios, dict):
        return
    for key in ("uniform", "multicast", "qos_hotspot"):
        _require(key in scenarios, name, f"missing scenario {key!r}", errors)

    multicast = scenarios.get("multicast", {}).get("multicast", {})
    copies = multicast.get("copies")
    _require(
        isinstance(copies, int) and copies > 0,
        name,
        "multicast scenario expanded no copies",
        errors,
    )
    _require(
        multicast.get("delivered") == copies,
        name,
        f"multicast delivered {multicast.get('delivered')!r} of "
        f"{copies!r} expanded copies",
        errors,
    )

    qos = scenarios.get("qos_hotspot", {})
    load = qos.get("offered_load")
    _require(
        isinstance(load, (int, float)) and load >= 1.0,
        name,
        f"qos_hotspot offered load {load!r} below saturation (1.0)",
        errors,
    )
    tenants = qos.get("tenants", {})
    _require(
        isinstance(tenants, dict) and len(tenants) >= 2,
        name,
        "qos_hotspot needs at least two tenant classes",
        errors,
    )
    if isinstance(tenants, dict) and len(tenants) >= 2:
        for tenant, row in tenants.items():
            _require(
                row.get("delivered") == row.get("offered"),
                name,
                f"tenant {tenant!r} starved: {row.get('delivered')!r} of "
                f"{row.get('offered')!r} words delivered",
                errors,
            )
        by_weight = sorted(tenants.items(), key=lambda kv: kv[1]["weight"])
        light, heavy = by_weight[0], by_weight[-1]
        _require(
            heavy[1]["weight"] > light[1]["weight"],
            name,
            "qos_hotspot tenant weights do not differ",
            errors,
        )
        heavy_p99 = heavy[1]["latency_cycles"]["p99"]
        light_p99 = light[1]["latency_cycles"]["p99"]
        _require(
            heavy_p99 is not None
            and light_p99 is not None
            and heavy_p99 <= light_p99,
            name,
            f"weighted tenant {heavy[0]!r} p99 {heavy_p99!r} exceeds "
            f"unweighted {light[0]!r} p99 {light_p99!r}",
            errors,
        )


SCHEMAS: Dict[str, Callable[[Any, str, List[str]], None]] = {
    "gateway_load.json": check_gateway_load,
    "gateway_plane_kill.json": check_gateway_plane_kill,
    "bist_probe_counts.json": check_probe_counts,
    "vector_pipeline.json": check_vector_pipeline,
    "obs_overhead.json": check_obs_overhead,
    "fault_recovery_vector.json": check_fault_recovery_vector,
    "wire_protocol.json": check_wire_protocol,
    "cluster_soak.json": check_cluster_soak,
    "backend_arena.json": check_backend_arena,
    "traffic_scenarios.json": check_traffic_scenarios,
}


def main(argv: List[str]) -> int:
    out_dir = pathlib.Path(
        argv[1] if len(argv) > 1 else pathlib.Path(__file__).parent / "out"
    )
    if not out_dir.is_dir():
        print(f"error: artifact directory {out_dir} does not exist")
        return 1
    artifacts = sorted(out_dir.glob("*.json"))
    if not artifacts:
        print(f"error: no JSON artifacts under {out_dir}")
        return 1
    errors: List[str] = []
    for path in artifacts:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            errors.append(f"{path.name}: unreadable ({error})")
            continue
        validator = SCHEMAS.get(path.name)
        if validator is not None:
            validator(data, path.name, errors)
    if errors:
        print(f"{len(errors)} artifact problem(s):")
        for problem in errors:
            print(f"  - {problem}")
        return 1
    print(f"{len(artifacts)} JSON artifact(s) validated under {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
