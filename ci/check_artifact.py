#!/usr/bin/env python3
"""Schema and invariant checks for the JSON artifacts of the figure binaries.

Every binary of `crates/bench` writes a versioned envelope::

    {"figure": "<name>", "schema": 2, "data": ...}

and this script knows, per figure name, what shape and invariants the
payload must satisfy.  CI runs it over every artifact, so a serializer
regression, a schema drift, or a broken experimental invariant (e.g. "the
removal algorithm never needs more VCs than resource ordering") fails the
build instead of silently producing unusable artifacts.

Usage:
    ci/check_artifact.py ARTIFACT.json [--timing-tolerance T] [--max-wall-ms W]

`--timing-tolerance` applies to `cdg_incremental` and is its
timing-regression guard: it fails when the incremental CDG maintenance
engine is slower than the full-rebuild reference by more than the given
fraction (incremental/rebuild > 1 + T).

`--max-wall-ms` is an absolute wall-time bound.  For `fig_faults` it guards
the fault sweep's recorded wall time: live reconfiguration getting
pathologically slower (e.g. the epoch protocol looping on its fallback)
fails CI even when every logical invariant still holds.  For `fig_scale` it
guards the removal time summed over the scaling grid.

`--min-attribution` applies to `noc_trace` artifacts (the Chrome-trace
files `--trace` writes): fail when less than the given fraction of the
root span's wall time is covered by named phase spans, i.e. when the
instrumentation stops accounting for where the time goes.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 8

CERTIFY_VERDICTS = ["certified-free", "certified-deadlockable", "unknown"]

STRATEGY_MATRIX_NAMES = [
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "recovery-reconfig",
]

SIM_STRATEGY_POLICIES = [
    "unsafe-single-vc",
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "escape-channel-adaptive",
    "recovery-reconfig",
]


class CheckError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


def require_keys(obj, keys, what):
    require(isinstance(obj, dict), f"{what} must be an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    require(not missing, f"{what} is missing keys: {missing}")


def check_vc_sweep(data, figure):
    require(isinstance(data, list) and data, f"{figure} data must be a non-empty list")
    for point in data:
        require_keys(
            point,
            ["switch_count", "resource_ordering_vcs", "deadlock_removal_vcs", "cycles_broken"],
            f"{figure} point",
        )
        require(
            point["deadlock_removal_vcs"] <= point["resource_ordering_vcs"],
            f"{figure} @ {point['switch_count']} switches: removal needs "
            f"{point['deadlock_removal_vcs']} VCs > ordering's {point['resource_ordering_vcs']}",
        )


def check_power_comparison(comparison, what):
    require_keys(
        comparison,
        [
            "benchmark",
            "original_power_mw",
            "removal_power_mw",
            "ordering_power_mw",
            "original_area_um2",
            "removal_area_um2",
            "ordering_area_um2",
            "removal_vcs",
            "ordering_vcs",
            "normalised_ordering_power",
        ],
        what,
    )
    require(
        comparison["normalised_ordering_power"] >= 1.0,
        f"{what}: resource ordering must cost at least as much power as removal "
        f"(got {comparison['normalised_ordering_power']})",
    )
    require(comparison["removal_vcs"] <= comparison["ordering_vcs"], f"{what}: VC comparison inverted")


def check_fig10(data):
    require(isinstance(data, list) and data, "fig10 data must be a non-empty list")
    for comparison in data:
        check_power_comparison(comparison, f"fig10 {comparison.get('benchmark', '?')}")


def check_summary(data):
    require_keys(data, ["comparisons", "summary"], "summary_table data")
    require(
        isinstance(data["comparisons"], list) and data["comparisons"],
        "summary_table comparisons must be a non-empty list",
    )
    for comparison in data["comparisons"]:
        check_power_comparison(comparison, f"summary {comparison.get('benchmark', '?')}")
    require_keys(
        data["summary"],
        [
            "mean_vc_saving",
            "mean_area_saving",
            "mean_power_saving",
            "mean_power_overhead",
            "mean_area_overhead",
        ],
        "summary aggregates",
    )
    require(0.0 < data["summary"]["mean_vc_saving"] <= 1.0, "mean VC saving out of range")


def check_sim_validation(data):
    require(isinstance(data, list) and data, "sim_validation data must be a non-empty list")
    for validation in data:
        require_keys(
            validation,
            [
                "benchmark",
                "original_cdg_cyclic",
                "original_deadlocked",
                "fixed_deadlocked",
                "fixed_delivered",
                "fixed_mean_latency",
                "fixed_p95_latency",
            ],
            f"sim_validation {validation.get('benchmark', '?')}",
        )
        require(
            validation["fixed_deadlocked"] is False,
            f"{validation['benchmark']}: the repaired design deadlocked in simulation",
        )
        require(
            validation["fixed_delivered"] > 0,
            f"{validation['benchmark']}: the repaired design delivered no packets",
        )


def check_phase_breakdown(phases, wall_ms, what):
    """One telemetry-attributed timing breakdown: the phases are disjoint
    (build / search-net-of-SCC / SCC / other), so they must sum back to the
    reported wall time, and the wall time must match the lump field it
    replaced."""
    require_keys(phases, ["wall_ms", "build_ms", "search_ms", "scc_ms", "other_ms"], what)
    for key, value in phases.items():
        require(
            isinstance(value, (int, float)) and value >= 0.0,
            f"{what}: {key} must be a non-negative number, got {value!r}",
        )
    require(
        abs(phases["wall_ms"] - wall_ms) < 1e-9,
        f"{what}: phase wall_ms {phases['wall_ms']} disagrees with the point's {wall_ms}",
    )
    covered = phases["build_ms"] + phases["search_ms"] + phases["scc_ms"] + phases["other_ms"]
    require(
        covered <= phases["wall_ms"] * 1.001 + 1e-6,
        f"{what}: phases sum to {covered:.3f} ms > wall {phases['wall_ms']:.3f} ms",
    )


def check_cdg_incremental(data, timing_tolerance):
    require_keys(
        data,
        ["runs_per_mode", "total_rebuild_ms", "total_incremental_ms", "overall_speedup", "points"],
        "cdg_incremental data",
    )
    points = data["points"]
    require(isinstance(points, list) and points, "cdg_incremental must contain timed grid points")
    for point in points:
        require_keys(
            point,
            [
                "benchmark",
                "switch_count",
                "cycles_broken",
                "deps_removed",
                "deps_added",
                "rebuild_ms",
                "incremental_ms",
                "rebuild_phases",
                "incremental_phases",
                "speedup",
            ],
            "cdg_incremental point",
        )
        where = f"cdg_incremental {point['benchmark']} @ {point['switch_count']} switches"
        check_phase_breakdown(point["rebuild_phases"], point["rebuild_ms"], f"{where} rebuild")
        check_phase_breakdown(
            point["incremental_phases"], point["incremental_ms"], f"{where} incremental"
        )
    require(
        any(p["cycles_broken"] > 0 for p in points),
        "cdg_incremental grid has no cycle-heavy points — the timing would be vacuous",
    )
    # The binary asserts outcome equality between the two modes internally;
    # here we only guard the artifact shape and, optionally, the timing.
    if timing_tolerance is not None:
        rebuild = data["total_rebuild_ms"]
        incremental = data["total_incremental_ms"]
        require(rebuild > 0.0, "cdg_incremental rebuild total must be positive")
        ratio = incremental / rebuild
        require(
            ratio <= 1.0 + timing_tolerance,
            "timing regression: incremental CDG maintenance took "
            f"{incremental:.2f} ms vs {rebuild:.2f} ms rebuild "
            f"(ratio {ratio:.3f} > allowed {1.0 + timing_tolerance:.3f})",
        )


SCALE_FAMILIES = ["mesh2d", "torus2d", "mesh3d", "torus3d", "fat-tree", "dragonfly"]


SCALE_SCHEMA = 2


def check_fig_scale(data, max_total_ms):
    require_keys(
        data,
        ["scale_schema", "runs_per_point", "strategy_switch_cap", "total_removal_ms", "points"],
        "fig_scale data",
    )
    require(
        data["scale_schema"] == SCALE_SCHEMA,
        f"fig_scale payload layout {data['scale_schema']} != expected {SCALE_SCHEMA}",
    )
    points = data["points"]
    require(isinstance(points, list) and points, "fig_scale must contain timed grid points")
    cap = data["strategy_switch_cap"]
    by_family = {}
    for point in points:
        require_keys(
            point,
            [
                "family",
                "switches",
                "links",
                "channels",
                "flows",
                "cycles_broken",
                "added_vcs",
                "removal_ms",
                "phases",
                "strategies",
            ],
            "fig_scale point",
        )
        where = f"fig_scale {point['family']} @ {point['switches']} switches"
        check_phase_breakdown(point["phases"], point["removal_ms"], where)
        require(
            point["family"] in SCALE_FAMILIES,
            f"{where}: unknown family; known: {SCALE_FAMILIES}",
        )
        require(point["flows"] > 0, f"{where}: workload has no flows")
        require(
            point["channels"] >= point["links"],
            f"{where}: fewer channels than links (every link carries at least one VC)",
        )
        if point["switches"] <= cap:
            names = sorted(s["strategy"] for s in point["strategies"])
            require(
                names == sorted(STRATEGY_MATRIX_NAMES),
                f"{where}: expected one strategy row per strategy, got {names}",
            )
            rows = {s["strategy"]: s for s in point["strategies"]}
            require(
                rows["escape-channel"]["cycles_broken"] == 0,
                f"{where}: escape-channel avoidance must break zero cycles",
            )
            require(
                rows["recovery-reconfig"]["added_vcs"] == 0,
                f"{where}: recovery reconfiguration must add zero VCs",
            )
            require(
                rows["cycle-breaking"]["added_vcs"] <= rows["resource-ordering"]["added_vcs"],
                f"{where}: removal must not need more VCs than resource ordering",
            )
            require(
                rows["cycle-breaking"]["added_vcs"] == point["added_vcs"]
                and rows["cycle-breaking"]["cycles_broken"] == point["cycles_broken"],
                f"{where}: cycle-breaking strategy row disagrees with the timed point",
            )
        else:
            require(
                point["strategies"] == [],
                f"{where}: strategy rows above the {cap}-switch cap",
            )
        by_family.setdefault(point["family"], []).append(point)
    # The grid must scale monotonically within each family (it is generated
    # in ascending size order) and reach the headline sizes.
    for family, rows in by_family.items():
        sizes = [p["switches"] for p in rows]
        require(
            sizes == sorted(sizes) and len(set(sizes)) == len(sizes),
            f"fig_scale {family}: switch counts must strictly increase, got {sizes}",
        )
        for small, large in zip(rows, rows[1:]):
            require(
                large["links"] > small["links"] and large["channels"] > small["channels"],
                f"fig_scale {family}: links/channels must grow with switch count",
            )
    require(
        any(p["switches"] >= 10_000 for p in points),
        "fig_scale grid never reaches the 10k-switch headline point",
    )
    require(
        any(p["cycles_broken"] > 0 for p in points),
        "fig_scale grid has no cycle-heavy points — the timing would be vacuous",
    )
    total = sum(p["removal_ms"] for p in points)
    require(
        abs(data["total_removal_ms"] - total) <= 1e-6 * max(1.0, total),
        f"fig_scale total_removal_ms {data['total_removal_ms']} is not the sum "
        f"of the per-point removal times ({total})",
    )
    if max_total_ms is not None:
        require(
            data["total_removal_ms"] <= max_total_ms,
            f"timing regression: removal over the scaling grid took "
            f"{data['total_removal_ms']:.0f} ms (allowed {max_total_ms:.0f} ms)",
        )


def check_strategy_matrix(data):
    require_keys(data, ["strategies", "points"], "fig_strategy_matrix data")
    require(
        data["strategies"] == STRATEGY_MATRIX_NAMES,
        f"strategy list must be {STRATEGY_MATRIX_NAMES}, got {data['strategies']}",
    )
    points = data["points"]
    require(isinstance(points, list) and points, "fig_strategy_matrix must contain sweep points")
    benchmarks = {p["benchmark"] for p in points}
    require(
        {"D26_media", "D36_8"} <= benchmarks,
        f"the matrix must cover the Figure 8 and Figure 9 benchmarks, got {sorted(benchmarks)}",
    )
    for point in points:
        require_keys(
            point,
            ["benchmark", "switch_count", "active_flows", "mean_hops", "outcomes"],
            "fig_strategy_matrix point",
        )
        where = f"{point['benchmark']} @ {point['switch_count']} switches"
        outcomes = {o["strategy"]: o for o in point["outcomes"]}
        require(
            sorted(outcomes) == sorted(STRATEGY_MATRIX_NAMES),
            f"{where}: expected one outcome per strategy, got {sorted(outcomes)}",
        )
        for outcome in point["outcomes"]:
            require_keys(
                outcome,
                ["strategy", "kind", "added_vcs", "cycles_broken", "mean_hops", "sim", "certify"],
                f"{where} outcome",
            )
            certify = outcome["certify"]
            require_keys(
                certify,
                ["verdict", "cdg_cyclic", "witness_worms", "search_steps"],
                f"{where} {outcome['strategy']} certify block",
            )
            require(
                certify["verdict"] == "certified-free",
                f"{where}: {outcome['strategy']} produced a repaired design the "
                f"certified verifier rates {certify['verdict']!r}, not certified-free",
            )
        require(
            outcomes["escape-channel"]["cycles_broken"] == 0,
            f"{where}: escape-channel avoidance must break zero cycles",
        )
        require(
            outcomes["recovery-reconfig"]["added_vcs"] == 0,
            f"{where}: recovery reconfiguration must add zero VCs",
        )
        require(
            outcomes["cycle-breaking"]["added_vcs"] <= outcomes["resource-ordering"]["added_vcs"],
            f"{where}: removal must not need more VCs than resource ordering",
        )
        require(
            outcomes["recovery-reconfig"]["mean_hops"] >= point["mean_hops"] - 1e-9,
            f"{where}: recovery routes cannot be shorter than the shortest-path input",
        )


def check_sim_strategies(data):
    require_keys(data, ["injection_gaps", "policies", "points"], "fig_sim_strategies data")
    require(
        data["policies"] == SIM_STRATEGY_POLICIES,
        f"policy list must be {SIM_STRATEGY_POLICIES}, got {data['policies']}",
    )
    gaps = data["injection_gaps"]
    require(isinstance(gaps, list) and gaps, "injection_gaps must be a non-empty list")
    points = data["points"]
    require(isinstance(points, list) and points, "fig_sim_strategies must contain sweep points")
    benchmarks = {p["benchmark"] for p in points}
    require(
        {"D26_media", "D36_8"} <= benchmarks,
        f"the sweep must cover the Figure 8 and Figure 9 benchmarks, got {sorted(benchmarks)}",
    )
    baseline_deadlock_points = 0
    for point in points:
        require_keys(
            point,
            [
                "benchmark",
                "switch_count",
                "active_flows",
                "baseline_cdg_cyclic",
                "stress_flows",
                "series",
            ],
            "fig_sim_strategies point",
        )
        where = f"{point['benchmark']} @ {point['switch_count']} switches"
        series = {s["policy"]: s for s in point["series"]}
        require(
            sorted(series) == sorted(SIM_STRATEGY_POLICIES),
            f"{where}: expected one series per policy, got {sorted(series)}",
        )
        for entry in point["series"]:
            require(
                [r["mean_gap_cycles"] for r in entry["rates"]] == gaps,
                f"{where} {entry['policy']}: rates must cover every swept gap",
            )
            for rate in entry["rates"]:
                require_keys(
                    rate,
                    [
                        "mean_gap_cycles",
                        "stats",
                        "detected_by",
                        "recovery_events",
                        "packets_drained",
                        "flows_reconfigured",
                    ],
                    f"{where} {entry['policy']} rate",
                )
                require_keys(
                    rate["stats"],
                    [
                        "injected",
                        "delivered",
                        "deadlocked",
                        "mean_latency",
                        "p50_latency",
                        "p95_latency",
                        "p99_latency",
                        "max_latency",
                        "throughput",
                        "cycles",
                    ],
                    f"{where} {entry['policy']} stats",
                )
        # The headline invariant: every deadlock-handling policy delivers
        # 100% of packets deadlock-free at every swept injection rate.
        for policy, entry in series.items():
            if policy == "unsafe-single-vc":
                continue
            for rate in entry["rates"]:
                stats = rate["stats"]
                require(
                    stats["deadlocked"] is False,
                    f"{where}: {policy} deadlocked at gap {rate['mean_gap_cycles']}",
                )
                require(
                    stats["delivered"] == stats["injected"],
                    f"{where}: {policy} delivered {stats['delivered']}/{stats['injected']} "
                    f"at gap {rate['mean_gap_cycles']}",
                )
        # The control group: the unsafe baseline can only deadlock where
        # the base CDG is cyclic, every deadlock must be established by the
        # exact wait-for-graph detector, and wherever it deadlocks the
        # DBR-style drain must have fired (and still delivered 100%).
        unsafe = series["unsafe-single-vc"]
        recovery = series["recovery-reconfig"]
        deadlocked_rates = [r for r in unsafe["rates"] if r["stats"]["deadlocked"]]
        if not point["baseline_cdg_cyclic"]:
            require(
                not deadlocked_rates,
                f"{where}: acyclic baseline CDG cannot deadlock, but the unsafe run did",
            )
        for rate in deadlocked_rates:
            require(
                rate["detected_by"] == "wait-for-graph",
                f"{where}: unsafe deadlock at gap {rate['mean_gap_cycles']} "
                f"was established by {rate['detected_by']}, not the exact detector",
            )
        for unsafe_rate, recovery_rate in zip(unsafe["rates"], recovery["rates"]):
            if unsafe_rate["stats"]["deadlocked"]:
                require(
                    recovery_rate["recovery_events"] >= 1,
                    f"{where}: unsafe run deadlocked at gap "
                    f"{unsafe_rate['mean_gap_cycles']} but the dynamic drain never fired",
                )
        if deadlocked_rates:
            baseline_deadlock_points += 1
    require(
        baseline_deadlock_points > 0,
        "no grid point shows the unsafe single-VC baseline deadlocking — "
        "the experiment's control group is vacuous",
    )


FAULT_STRATEGIES = [
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "recovery-reconfig",
]

FAULT_STATS_KEYS = [
    "faults_injected",
    "reconfig_events",
    "epochs_committed",
    "cyclic_commits",
    "drain_fallbacks",
    "packets_drained",
    "flows_rerouted",
    "unreachable_flows",
    "unreachable_packets",
    "injected",
    "delivered",
    "delivered_fraction",
    "mean_latency",
    "connected",
    "deadlocked",
]


def check_fig_faults(data, max_wall_ms):
    require_keys(data, ["strategies", "wall_ms", "points"], "fig_faults data")
    require(
        data["strategies"] == FAULT_STRATEGIES,
        f"strategy list must be {FAULT_STRATEGIES}, got {data['strategies']}",
    )
    points = data["points"]
    require(isinstance(points, list) and points, "fig_faults must contain sweep points")
    benchmarks = {p["benchmark"] for p in points}
    require(
        {"D26_media", "D36_8"} <= benchmarks,
        f"the sweep must cover the Figure 8 and Figure 9 benchmarks, got {sorted(benchmarks)}",
    )
    fallbacks_exercised = 0
    for point in points:
        require_keys(
            point,
            ["benchmark", "switch_count", "active_flows", "faults_injected", "connected", "runs"],
            "fig_faults point",
        )
        where = f"{point['benchmark']} @ {point['switch_count']} switches"
        require(
            point["faults_injected"] >= 1,
            f"{where}: the storm scheduled no failures — the point is vacuous",
        )
        require(
            [r["strategy"] for r in point["runs"]] == FAULT_STRATEGIES,
            f"{where}: expected one run per strategy in order, "
            f"got {[r['strategy'] for r in point['runs']]}",
        )
        for run in point["runs"]:
            require_keys(run, ["strategy", "added_vcs", "stats"], f"{where} run")
            stats = run["stats"]
            require_keys(stats, FAULT_STATS_KEYS, f"{where} {run['strategy']} stats")
            label = f"{where}: {run['strategy']}"
            # The protocol's core guarantee: no epoch ever commits a cyclic
            # combined dependency graph, and no run ends deadlocked.
            require(
                stats["cyclic_commits"] == 0,
                f"{label} committed {stats['cyclic_commits']} cyclic epoch(s)",
            )
            require(stats["deadlocked"] is False, f"{label} deadlocked through the storm")
            require(
                stats["faults_injected"] == point["faults_injected"],
                f"{label}: per-run fault count disagrees with the point",
            )
            require(
                stats["connected"] == point["connected"],
                f"{label}: per-run connectivity disagrees with the point",
            )
            require(
                stats["epochs_committed"] >= 1,
                f"{label}: the storm must commit at least one epoch",
            )
            require(
                stats["epochs_committed"] <= stats["reconfig_events"],
                f"{label}: more epochs committed than reconfiguration events",
            )
            # Fallback accounting: scoped drains are counted per epoch.
            require(
                stats["drain_fallbacks"] <= stats["epochs_committed"],
                f"{label}: more drain fallbacks than committed epochs",
            )
            fallbacks_exercised += stats["drain_fallbacks"]
            # Survivability: the delivered fraction is consistent, and a
            # storm that keeps the fabric connected loses nothing.
            require(
                0.0 <= stats["delivered_fraction"] <= 1.0,
                f"{label}: delivered fraction {stats['delivered_fraction']} out of range",
            )
            if stats["injected"] > 0:
                recomputed = stats["delivered"] / stats["injected"]
                require(
                    abs(stats["delivered_fraction"] - recomputed) < 1e-9,
                    f"{label}: delivered fraction {stats['delivered_fraction']} "
                    f"!= delivered/injected {recomputed}",
                )
            if point["connected"]:
                require(
                    stats["delivered"] > 0,
                    f"{label} delivered nothing through a connected storm",
                )
                require(
                    stats["unreachable_flows"] == 0,
                    f"{label}: connected storm left {stats['unreachable_flows']} "
                    "flow(s) unreachable",
                )
    require(
        fallbacks_exercised > 0,
        "no run ever took the scoped-drain fallback — the protocol's hard "
        "path is untested by this sweep",
    )
    if max_wall_ms is not None:
        require(
            data["wall_ms"] <= max_wall_ms,
            f"timing regression: the fault sweep took {data['wall_ms']:.0f} ms "
            f"(allowed {max_wall_ms:.0f} ms)",
        )


def check_conservatism(data):
    require_keys(data, ["benchmarks"], "fig_conservatism data")
    groups = data["benchmarks"]
    require(isinstance(groups, list) and groups, "fig_conservatism must contain benchmark groups")
    names = {g.get("benchmark") for g in groups}
    require(
        {"D26_media", "D36_8", "random"} <= names,
        f"the sweep must cover both figure grids plus the random population, got {sorted(names)}",
    )
    for group in groups:
        require_keys(
            group,
            [
                "benchmark",
                "cyclic_points",
                "certified_deadlockable",
                "certified_free_cyclic",
                "unknown",
                "gap_vcs",
                "witness_attempts",
                "witness_realized",
                "points",
            ],
            "fig_conservatism group",
        )
        name = group["benchmark"]
        points = group["points"]
        require(isinstance(points, list) and points, f"{name}: group has no points")
        cyclic = [p for p in points if p["cdg_cyclic"]]
        for point in points:
            require_keys(
                point,
                [
                    "benchmark",
                    "switch_count",
                    "active_flows",
                    "cdg_cyclic",
                    "verdict",
                    "witness_worms",
                    "search_steps",
                    "removal_vcs",
                    "runtime_deadlocked",
                    "wait_for_graph_fired",
                    "witness_attempted",
                    "witness_realized",
                ],
                f"{name} point",
            )
            where = f"{name} @ {point['switch_count']} switches"
            require(
                point["verdict"] in CERTIFY_VERDICTS,
                f"{where}: unknown verdict {point['verdict']!r}",
            )
            # The sound lattice: CDG acyclic ⇒ certified free ⇒ the exact
            # runtime detector never fires.  Any inversion is a verifier bug.
            if not point["cdg_cyclic"]:
                require(
                    point["verdict"] == "certified-free",
                    f"{where}: acyclic CDG but verdict {point['verdict']!r}",
                )
            if point["verdict"] == "certified-free":
                require(
                    point["runtime_deadlocked"] is False,
                    f"{where}: certified-free design deadlocked at runtime",
                )
                require(
                    point["wait_for_graph_fired"] is False,
                    f"{where}: certified-free design tripped the exact detector",
                )
            if point["verdict"] == "certified-deadlockable":
                require(
                    point["witness_worms"] >= 1,
                    f"{where}: deadlockable verdict without witness worms",
                )
                require(
                    point["witness_attempted"] is True,
                    f"{where}: deadlockable verdict but no witness replay",
                )
        # Conservatism-gap accounting: counts must tile the cyclic points.
        require(
            0 <= group["certified_free_cyclic"] <= group["cyclic_points"],
            f"{name}: gap count {group['certified_free_cyclic']} outside "
            f"[0, {group['cyclic_points']}]",
        )
        require(
            group["cyclic_points"] == len(cyclic),
            f"{name}: cyclic_points {group['cyclic_points']} != recount {len(cyclic)}",
        )
        require(
            group["certified_deadlockable"]
            + group["certified_free_cyclic"]
            + group["unknown"]
            == group["cyclic_points"],
            f"{name}: verdict counts do not tile the cyclic points",
        )
        require(group["gap_vcs"] >= 0, f"{name}: negative gap_vcs")
        require(
            group["witness_realized"] <= group["witness_attempts"],
            f"{name}: more witnesses realized than replays attempted",
        )
    # The population must exercise the interesting region of the lattice:
    # at least one group must contain cyclic (and deadlockable) designs,
    # otherwise the agreement checks above are vacuous.
    require(
        any(g["cyclic_points"] > 0 for g in groups),
        "no group contains a cyclic design — the conservatism sweep is vacuous",
    )
    require(
        any(g["certified_deadlockable"] > 0 for g in groups),
        "no group contains a certified-deadlockable design — the witness path is untested",
    )


# Every trace must carry the root span's category plus at least one of the
# work categories — a trace with a root and no attributed work means the
# instrumentation seam came unplugged somewhere.
TRACE_WORK_CATEGORIES = {"stage", "sweep", "removal", "sim", "jobs", "scc", "timing"}


def check_noc_trace(artifact, min_attribution):
    """The Chrome-trace telemetry artifact: a schema-v8 envelope whose
    document also carries a `traceEvents` array (Perfetto ignores the
    envelope keys, the envelope parser ignores `traceEvents`)."""
    data = artifact["data"]
    require_keys(
        data,
        ["source", "span_count", "dropped_spans", "phases", "counters", "histograms", "threads"],
        "noc_trace data",
    )
    require("traceEvents" in artifact, "noc_trace document must carry a traceEvents array")
    events = artifact["traceEvents"]
    require(isinstance(events, list) and events, "traceEvents must be a non-empty array")

    spans = []
    seqs = set()
    for event in events:
        require(isinstance(event, dict), "every trace event must be an object")
        phase = event.get("ph")
        require(phase in ("M", "X"), f"unexpected event phase {phase!r}")
        if phase == "M":
            require_keys(event, ["name", "pid", "tid", "args"], "metadata event")
            continue
        require_keys(
            event, ["name", "cat", "ph", "ts", "dur", "pid", "tid", "seq", "parent"], "span event"
        )
        for key in ("ts", "dur", "tid", "seq", "parent"):
            require(
                isinstance(event[key], int) and event[key] >= 0,
                f"span event {key} must be a non-negative integer, got {event[key]!r}",
            )
        require(event["seq"] not in seqs, f"duplicate span sequence number {event['seq']}")
        seqs.add(event["seq"])
        spans.append(event)
    require(spans, "trace has no complete (ph == X) span events")
    require(
        data["span_count"] == len(spans),
        f"data.span_count {data['span_count']} != {len(spans)} recorded span events",
    )

    # Timestamps must be monotone per thread in file order (the writer
    # sorts by start time, so a violation means a broken clock or sort).
    last_ts = {}
    for event in spans:
        tid = event["tid"]
        require(
            last_ts.get(tid, 0) <= event["ts"],
            f"thread {tid} timestamps go backwards at seq {event['seq']}",
        )
        last_ts[tid] = event["ts"]

    categories = {event["cat"] for event in spans}
    require("figure" in categories, "trace has no root 'figure' span")
    require(
        categories & TRACE_WORK_CATEGORIES,
        f"trace has no work-phase spans; categories present: {sorted(categories)}",
    )

    if min_attribution is not None:
        root = max(
            (e for e in spans if e["parent"] == 0), key=lambda e: (e["dur"], -e["seq"])
        )
        window = (root["ts"], root["ts"] + root["dur"])
        intervals = sorted(
            (max(e["ts"], window[0]), min(e["ts"] + e["dur"], window[1]))
            for e in spans
            if e["seq"] != root["seq"]
        )
        covered, cursor = 0, window[0]
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        attribution = covered / root["dur"] if root["dur"] else 1.0
        require(
            attribution >= min_attribution,
            f"only {100 * attribution:.1f}% of the root span's wall time is "
            f"attributed to named phases (required {100 * min_attribution:.1f}%)",
        )


CHECKS = {
    "fig8_d26_media": lambda data, _: check_vc_sweep(data, "fig8"),
    "fig9_d36_8": lambda data, _: check_vc_sweep(data, "fig9"),
    "fig10_power": lambda data, _: check_fig10(data),
    "summary_table": lambda data, _: check_summary(data),
    "sim_validation": lambda data, _: check_sim_validation(data),
    "cdg_incremental": check_cdg_incremental,
    "fig_scale": check_fig_scale,
    "fig_strategy_matrix": lambda data, _: check_strategy_matrix(data),
    "fig_sim_strategies": lambda data, _: check_sim_strategies(data),
    "fig_conservatism": lambda data, _: check_conservatism(data),
    "fig_faults": check_fig_faults,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="path to a figure JSON artifact")
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=None,
        metavar="T",
        help="for cdg_incremental: fail if the incremental-over-reference timing ratio exceeds 1 + T",
    )
    parser.add_argument(
        "--max-wall-ms",
        type=float,
        default=None,
        metavar="W",
        help="for fig_faults: fail if the recorded sweep wall time exceeds W milliseconds; "
        "for fig_scale: fail if the summed removal time exceeds W milliseconds",
    )
    parser.add_argument(
        "--min-attribution",
        type=float,
        default=None,
        metavar="F",
        help="for noc_trace: fail if less than fraction F of the root span's "
        "wall time is covered by named phase spans",
    )
    args = parser.parse_args()

    with open(args.artifact) as handle:
        artifact = json.load(handle)

    try:
        require_keys(artifact, ["figure", "schema", "data"], "artifact envelope")
        figure = artifact["figure"]
        require(
            artifact["schema"] == SCHEMA_VERSION,
            f"schema version {artifact['schema']} != expected {SCHEMA_VERSION}",
        )
        if figure == "noc_trace":
            # The trace check needs the whole document: its events live
            # beside the envelope, not inside data.
            check_noc_trace(artifact, args.min_attribution)
        else:
            check = CHECKS.get(figure)
            require(check is not None, f"unknown figure name {figure!r}; known: {sorted(CHECKS)}")
            # The second argument is the figure's guard option: the absolute
            # wall-time bound for fig_faults and fig_scale, the timing ratio
            # for the rest.
            absolute = figure in ("fig_faults", "fig_scale")
            guard = args.max_wall_ms if absolute else args.timing_tolerance
            check(artifact["data"], guard)
    except CheckError as error:
        print(f"{args.artifact}: FAIL — {error}", file=sys.stderr)
        return 1
    print(f"{args.artifact}: ok ({artifact['figure']}, schema {artifact['schema']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
