"""Cross-shard telemetry stitching (the merge-determinism contract).

The canonical projection of the stitched sharded view — per-actor work
counters, per-link token counts and value-stream digests, per-track
ordinal-labelled span sequences — must be byte-identical to the same
projection of the single-kernel journal, at any shard count, on any
interpreter tier.  On top of that sit the cross-shard causal edges
(push ordinal N on the producer shard == pop ordinal N on the consumer
shard) and the merged multi-process Chrome trace export.
"""

import json

import pytest

from repro.apps.amodule.app import AMODULE_HOSTS, build_amodule_program, build_demo
from repro.apps.rle.app import RLE_HOSTS, build_rle_pipeline, build_rle_program
from repro.core import DataflowSession
from repro.core.shards import ShardedRun
from repro.dbg import Debugger, StopKind
from repro.obs import aggregate_journal, aggregate_sharded, validate_chrome_trace
from repro.sim.sharding import HostSpec, partition_program

VALUES = (1, 1, 2, 3, 3, 3, 3, 9, 9, 4)
AM_VALUES = (1, 2, 3, 4)


def _set_tier(runtime, tier):
    runtime.config.interp_tier = tier
    for actor in runtime.all_actors():
        interp = getattr(actor, "interp", None)
        if interp is not None:
            interp.tier = tier


def _run_to_exit(dbg):
    ev = dbg.run()
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        ev = dbg.cont()
    return ev


def _single_rle(tier):
    sched, runtime, _sink = build_rle_pipeline(VALUES)
    _set_tier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=16)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    return session


def _sharded_rle(n_shards, tier):
    plan = partition_program(
        build_rle_program(VALUES), n_shards, hosts=[HostSpec(*h) for h in RLE_HOSTS]
    )

    def build(ctx):
        sched, runtime, _sink = build_rle_pipeline(VALUES, shard=ctx)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    run = ShardedRun(plan, build, record=True)
    assert run.run().kind == "exited"
    return run


def _single_amodule(tier):
    sched, _plat, runtime, _src, _sink = build_demo(AM_VALUES)
    _set_tier(runtime, tier)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=16)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    return session


def _sharded_amodule(n_shards, tier):
    plan = partition_program(
        build_amodule_program(attribute=1, max_steps=len(AM_VALUES)),
        n_shards,
        hosts=[HostSpec(*h) for h in AMODULE_HOSTS],
    )

    def build(ctx):
        sched, _plat, runtime, _src, _sink = build_demo(AM_VALUES, shard=ctx)
        _set_tier(runtime, tier)
        return DataflowSession(Debugger(sched, runtime))

    run = ShardedRun(plan, build, record=True)
    assert run.run().kind == "exited"
    return run


# ------------------------------------------------ canonical byte-identity


@pytest.mark.parametrize("tier", ["auto", "slow"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_rle_canonical_matches_single_kernel(tier, n_shards):
    single = aggregate_journal(_single_rle(tier).replay.master)
    sharded = aggregate_sharded(_sharded_rle(n_shards, tier))
    assert sharded.complete and not sharded.warnings
    assert sharded.canonical_lines() == single.canonical_lines()
    assert sharded.canonical_fingerprint() == single.canonical_fingerprint()


@pytest.mark.parametrize("tier", ["auto", "slow"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_amodule_canonical_matches_single_kernel(tier, n_shards):
    single = aggregate_journal(_single_amodule(tier).replay.master)
    sharded = aggregate_sharded(_sharded_amodule(n_shards, tier))
    assert sharded.complete and not sharded.warnings
    assert sharded.canonical_lines() == single.canonical_lines()
    assert sharded.canonical_fingerprint() == single.canonical_fingerprint()


def test_canonical_projection_is_tier_invariant():
    """The projection only contains order-determined quantities, so the
    bytecode and tree tiers must agree line for line too."""
    assert (
        aggregate_journal(_single_rle("auto").replay.master).canonical_lines()
        == aggregate_journal(_single_rle("slow").replay.master).canonical_lines()
    )


# --------------------------------------------------- synthetic graphs

SYN_VALUES = (3, 1, 4, 1, 5)
SYN_SMALL = dict(chains=2, modules_per_chain=3, filters_per_module=2)


def _synthetic_single(values, **dims):
    from repro.apps.synthetic import build_synthetic_pipeline

    sched, runtime, _sinks = build_synthetic_pipeline(values, **dims)
    session = DataflowSession(Debugger(sched, runtime))
    session.replay.record_on(interval=64)
    assert _run_to_exit(session.dbg).kind == StopKind.EXITED
    return session


def _synthetic_sharded(n_shards, values, **dims):
    from repro.apps.synthetic import (
        build_synthetic_pipeline,
        build_synthetic_program,
        synthetic_hosts,
    )

    program = build_synthetic_program(
        chains=dims.get("chains", 4),
        modules_per_chain=dims.get("modules_per_chain", 25),
        filters_per_module=dims.get("filters_per_module", 9),
        steps=len(values),
        work_iters=dims.get("work_iters", 1),
    )
    hosts = synthetic_hosts(dims.get("chains", 4), dims.get("modules_per_chain", 25))
    plan = partition_program(program, n_shards, hosts=hosts)

    def build(ctx):
        sched, runtime, _sinks = build_synthetic_pipeline(values, shard=ctx, **dims)
        return DataflowSession(Debugger(sched, runtime))

    run = ShardedRun(plan, build, record=True)
    assert run.run().kind == "exited"
    return run


@pytest.mark.parametrize("n_shards", [2, 4])
def test_synthetic_small_canonical_matches_single_kernel(n_shards):
    single = aggregate_journal(_synthetic_single(SYN_VALUES, **SYN_SMALL).replay.master)
    sharded = aggregate_sharded(_synthetic_sharded(n_shards, SYN_VALUES, **SYN_SMALL))
    assert sharded.complete and not sharded.warnings
    assert sharded.canonical_fingerprint() == single.canonical_fingerprint()


def test_synthetic_1000_actor_canonical_matches_single_kernel():
    """The headline 1000-fabric-actor graph, stitched from 2 shards."""
    single = aggregate_journal(_synthetic_single(SYN_VALUES).replay.master)
    sharded = aggregate_sharded(_synthetic_sharded(2, SYN_VALUES))
    assert sharded.complete and not sharded.warnings
    assert sharded.canonical_fingerprint() == single.canonical_fingerprint()


# ------------------------------------------------------ cross-shard edges


def test_cross_shard_edges_cover_every_forwarded_token():
    run = _sharded_rle(2, "auto")
    agg = aggregate_sharded(run)
    assert agg.edges, "a 2-shard RLE run must cut at least one link"
    per_link = {}
    for edge in agg.edges:
        assert edge.link in run.channels
        assert edge.send_time <= edge.recv_time
        assert edge.src_shard != edge.dst_shard
        channel = run.channels[edge.link]
        assert (edge.src_shard, edge.dst_shard) == (
            channel.src_shard,
            channel.dst_shard,
        )
        per_link.setdefault(edge.link, []).append(edge.ordinal)
    for link, ordinals in per_link.items():
        # ordinals are contiguous FIFO positions, one per forwarded token
        assert ordinals == list(range(1, run.channels[link].total_forwarded + 1))


def test_aggregate_requires_recorded_run():
    from repro.errors import DataflowDebugError

    plan = partition_program(
        build_rle_program(VALUES), 2, hosts=[HostSpec(*h) for h in RLE_HOSTS]
    )

    def build(ctx):
        sched, runtime, _sink = build_rle_pipeline(VALUES, shard=ctx)
        return DataflowSession(Debugger(sched, runtime))

    run = ShardedRun(plan, build, record=False)
    assert run.run().kind == "exited"
    with pytest.raises(DataflowDebugError):
        aggregate_sharded(run)


# --------------------------------------------------- merged Chrome export


@pytest.mark.parametrize("n_shards", [2, 4])
def test_merged_chrome_trace_passes_validator(n_shards):
    agg = aggregate_sharded(_sharded_rle(n_shards, "auto"))
    text = agg.chrome_trace()
    assert validate_chrome_trace(text) == []
    events = json.loads(text)["traceEvents"]
    pids = {ev["pid"] for ev in events}
    assert pids == set(range(1, n_shards + 1))
    # every process lane is named after its shard
    names = {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert names == {sid + 1: f"shard {sid}" for sid in range(n_shards)}
    # cut-link io spans carry their cross-shard edge annotation
    annotated = [ev for ev in events if ev["ph"] == "X" and "xshard" in ev.get("args", {})]
    assert len(annotated) == 2 * len(agg.edges)  # one push + one pop per edge


def test_merged_chrome_trace_is_stable_across_runs():
    """pid/tid assignment is a pure function of the plan and program:
    two identical sharded runs export byte-identical traces."""
    first = aggregate_sharded(_sharded_rle(2, "auto")).chrome_trace()
    second = aggregate_sharded(_sharded_rle(2, "auto")).chrome_trace()
    assert first == second
    # repeated export of the same aggregate is trivially stable too
    agg = aggregate_sharded(_sharded_rle(2, "auto"))
    assert agg.chrome_trace() == agg.chrome_trace()


def test_sharded_run_export_trace_writes_file(tmp_path):
    run = _sharded_rle(2, "auto")
    target = tmp_path / "nested" / "trace.json"
    nbytes = run.export_trace(str(target))
    assert target.exists() and nbytes == len(target.read_bytes())
    assert validate_chrome_trace(target.read_text()) == []
