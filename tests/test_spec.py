"""Tests for repro.spec: the model round-trip, the validation pass, the
bundled preset library, and the byte-identity of spec-built pipelines."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, shuffle
from repro.containers import presets
from repro.spec import (
    FailoverPolicyBlock,
    FaultEventSpec,
    FaultSpec,
    OverloadPolicyBlock,
    PipelineSpec,
    SpecError,
    StageSpec,
    TenantSpecBlock,
    WorkloadSpec,
)
from repro.spec.build import build, build_preset, bundled_spec_names, load_preset
from repro.spec.fuzz import generate_spec


def _stages(*triples):
    """(name, units, model[, upstream]) tuples -> StageSpec tuple."""
    out = []
    for t in triples:
        name, units, model = t[:3]
        upstream = t[3] if len(t) > 3 else None
        out.append(StageSpec(name, units, model=model, upstream=upstream))
    return tuple(out)


def _spec(**kwargs):
    kwargs.setdefault("name", "t")
    return PipelineSpec(**kwargs)


# -- round-trip -------------------------------------------------------------------


class TestRoundTrip:
    def test_kitchen_sink_round_trips(self):
        spec = PipelineSpec(
            name="everything",
            workload=WorkloadSpec(sim_nodes=128, staging_nodes=12, spare=2,
                                  steps=5, output_interval=10.0),
            stages=_stages(("helper", 4, "tree"),
                           ("bonds", 3, "rr", "helper"),
                           ("cna", 2, "serial", "bonds")),
            builder={"seed": 7, "fault_tolerance": True,
                     "backpressure": True,
                     "control_interval": 30.0},
            sla=4.0,
            faults=FaultSpec(recipe="smoke", seed=3, events=(
                FaultEventSpec(kind="node_crash", time=30.0, targets=(1,)),
            )),
            tenant=TenantSpecBlock(priority=2, reserved=6, burst=14),
            overload=OverloadPolicyBlock(mode="predictive"),
            failover=FailoverPolicyBlock(retry_jitter=0.1),
        )
        assert spec.validate() is spec
        again = PipelineSpec.from_yaml(spec.to_yaml())
        assert again == spec
        assert again.to_yaml() == spec.to_yaml()

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_generated_specs_round_trip_loss_free(self, seed):
        spec = generate_spec(seed)
        again = PipelineSpec.from_yaml(spec.to_yaml())
        assert again == spec
        assert again.to_yaml() == spec.to_yaml()

    def test_bundled_specs_round_trip(self):
        assert bundled_spec_names() == [
            "failover", "fig7", "overload", "predictive", "s3d"
        ]
        for name in bundled_spec_names():
            spec = load_preset(name).validate()
            assert PipelineSpec.from_yaml(spec.to_yaml()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown pipeline field"):
            PipelineSpec.from_dict({"name": "x", "colour": "red"})
        with pytest.raises(SpecError, match="unknown stage field"):
            PipelineSpec.from_dict(
                {"name": "x", "stages": [{"name": "a", "units": 1, "cpus": 4}]}
            )

    def test_save_load(self, tmp_path):
        path = tmp_path / "p.yaml"
        spec = generate_spec(11)
        spec.save(path)
        assert PipelineSpec.load(path) == spec


# -- validation -------------------------------------------------------------------


class TestValidation:
    def test_cycle_rejected(self):
        spec = _spec(stages=_stages(("helper", 4, "tree"),
                                    ("bonds", 2, "rr", "cna"),
                                    ("cna", 2, "rr", "bonds")))
        with pytest.raises(SpecError, match="cycle"):
            spec.validate()

    def test_dangling_upstream_rejected(self):
        spec = _spec(stages=_stages(("helper", 4, "tree"),
                                    ("bonds", 2, "rr", "ghost")))
        with pytest.raises(SpecError, match="unknown upstream stage 'ghost'"):
            spec.validate()

    def test_zero_unit_stage_rejected(self):
        spec = _spec(stages=_stages(("helper", 0, "tree")))
        with pytest.raises(SpecError, match="units must be >= 1"):
            spec.validate()

    def test_multiple_roots_rejected(self):
        spec = _spec(stages=_stages(("helper", 4, "tree"), ("bonds", 2, "rr")))
        with pytest.raises(SpecError, match="multiple root stages"):
            spec.validate()

    def test_non_tree_root_rejected(self):
        spec = _spec(stages=_stages(("bonds", 2, "rr")))
        with pytest.raises(SpecError, match="must use the 'tree' compute model"):
            spec.validate()

    def test_unsupported_compute_model_rejected(self):
        spec = _spec(stages=_stages(("cna", 2, "parallel")))
        with pytest.raises(SpecError, match="does not support"):
            spec.validate()

    def test_staging_overflow_rejected(self):
        spec = _spec(
            workload=WorkloadSpec(staging_nodes=5),
            stages=_stages(("helper", 4, "tree"), ("bonds", 4, "rr", "helper")),
        )
        with pytest.raises(SpecError, match="staging nodes"):
            spec.validate()

    def test_unknown_builder_key_rejected(self):
        with pytest.raises(SpecError, match="unknown builder key"):
            _spec(builder={"warp_factor": 9}).validate()

    @pytest.mark.parametrize("key", ["backpressure", "brownout"])
    def test_controller_config_mapping_rejected(self, key):
        # the controllers' tuning is fixed; a mapping here used to pass
        # validation and then fail the build with a TypeError
        with pytest.raises(SpecError, match=f"builder.{key} must be a bool"):
            _spec(builder={key: {"credit_refresh": 2.0}}).validate()

    @pytest.mark.parametrize("block,key", [
        ("failover", "collapse_ticks"),
        ("failover", "spill_reasons"),
        ("overload", "horizon"),
        ("builder", "num_sim_writers"),
        ("builder", "sla_interval"),
        ("builder", "overflow_horizon"),
        ("builder", "heartbeat_interval"),
        ("builder", "lease_timeout"),
        ("builder", "manager_lease_timeout"),
    ])
    def test_removed_tuning_key_rejected(self, block, key):
        # the tuning is fixed: a spec naming a removed key fails with an
        # error that names it (a typed block at parse, the builder block
        # at validation)
        with pytest.raises(SpecError, match=rf"unknown {block} (field|key).*'{key}'"):
            PipelineSpec.from_dict({"name": "x", block: {key: 3}}).validate()

    def test_buffer_below_one_step_rejected(self):
        with pytest.raises(SpecError, match="below one timestep per writer"):
            _spec(builder={"sim_buffer_bytes": 1024.0}).validate()
        with pytest.raises(SpecError, match="below one timestep"):
            _spec(builder={"stage_buffer_bytes": 1024.0}).validate()

    def test_tenant_floor_beyond_capacity_rejected(self):
        spec = _spec(tenant=TenantSpecBlock(reserved=99, burst=100))
        with pytest.raises(SpecError, match="exceeds the tenant's own"):
            spec.validate()

    def test_fault_target_out_of_range_rejected(self):
        spec = _spec(faults=FaultSpec(events=(
            FaultEventSpec(kind="node_crash", time=10.0, targets=(40,)),
        )))
        with pytest.raises(SpecError, match="outside"):
            spec.validate()

    def test_unknown_fault_recipe_rejected(self):
        with pytest.raises(SpecError, match="unknown fault recipe"):
            _spec(faults=FaultSpec(recipe="gremlins")).validate()

    def test_planted_invalid_yaml_rejected_with_pointed_error(self, tmp_path):
        # the acceptance check: a spec wired to an unknown stage fails with
        # an error that names the stage and the known alternatives
        path = tmp_path / "bad.yaml"
        path.write_text(
            "name: planted\n"
            "stages:\n"
            "- {name: helper, units: 4, model: tree}\n"
            "- {name: bonds, units: 2, upstream: helpr}\n"
        )
        with pytest.raises(SpecError) as err:
            build(Environment(), PipelineSpec.load(path))
        assert "helpr" in str(err.value) and "helper" in str(err.value)


# -- build ------------------------------------------------------------------------


def _trace(pipe):
    owner = pipe.node_census()["owner"]
    census = {
        "pool": set(owner),
        "free": [n for n, held in owner.items() if held == "free"],
        "failed": {n for n, held in owner.items() if held == "failed"},
        "held": {n for n, held in owner.items() if held.startswith("container:")},
    }
    return (
        census,
        pipe.telemetry.events,
        sorted((step, round(lat, 9)) for _, step, lat in pipe.end_to_end),
    )


class TestBuild:
    # The schedules these two presets produced when they were still built
    # from builder keywords, pinned so the historical runs stay fixed.
    # fig7's pins moved once since, when replica heartbeats became credited
    # lease beats: the increase's control messages no longer queue behind
    # heartbeats for a NIC slot, so it lands at s3d's heartbeat-free time.
    # Its event count moved again (1393 -> 1046) when the failure detectors
    # stopped scanning every lease_timeout/4: a healthy lease needs no scan,
    # so only the global manager's detector still wakes; the trace is unchanged.
    # Both counts moved once more (fig7 1046 -> 887, s3d 737 -> 611) when a
    # transfer that finds both NIC channels free stopped scheduling the two
    # channel requests and the grant step; the traces are unchanged.
    # And again (fig7 887 -> 733, s3d 611 -> 505) when the per-chunk DataTap
    # path stopped starting processes: writes, metadata pushes, free pull
    # tokens, free-core computes and emits no longer schedule an Initialize
    # and a completion event each; the traces are unchanged.
    # And again (fig7 733 -> 729, s3d 505 -> 501) when the increase stopped
    # starting two pass-through processes (the global manager's wrapper
    # around the gm_increase run, the local manager's around the INCREASE
    # run); the traces are unchanged.
    # And again (fig7 729 -> 718, s3d 501 -> 493) when a replica's worker
    # stopped starting a service process per chunk; the traces are
    # unchanged.
    def test_fig7_spec_matches_legacy_builder_byte_for_byte(self):
        env = Environment(tie_breaker=shuffle(5))
        pipe = build(env, load_preset("fig7").override(workload=dict(steps=3)))
        pipe.run(settle=60)
        assert _trace(pipe) == (
            {"pool": set(range(4, 19)), "free": [18], "failed": set(),
             "held": set(range(4, 18))},
            [(60.030201968371586, "increase bonds +1")],
            [],
        )
        assert env.events_processed == 718

    def test_s3d_spec_matches_legacy_builder_byte_for_byte(self):
        env = Environment(tie_breaker=shuffle(2))
        pipe = build_preset(env, "s3d", workload=dict(steps=2))
        pipe.run(settle=60)
        assert _trace(pipe) == (
            {"pool": set(range(4, 15)), "free": [14], "failed": set(),
             "held": set(range(4, 14))},
            [(60.030201968371586, "increase front +1")],
            [],
        )
        assert env.events_processed == 493

    def test_build_attaches_spec(self):
        env = Environment()
        spec = load_preset("s3d")
        pipe = build(env, spec)
        assert pipe.spec == spec

    def test_transport_field_rejected(self):
        # the data path is not a spec knob: DataTap online, the file
        # system once a stage's consumers are pruned
        with pytest.raises(SpecError, match=r"unknown pipeline field\(s\) \['transport'\]"):
            PipelineSpec.from_yaml("name: x\ntransport: sst\n")

    def test_override_overlay(self):
        base = load_preset("overload")
        derived = base.override(
            workload=dict(steps=4),
            builder=dict(control_interval=1e9),
            drop_builder=("backpressure", "brownout"),
        )
        # the base spec is untouched (frozen value semantics)
        assert base.builder["backpressure"] is True
        assert derived.workload.steps == 4
        assert "backpressure" not in derived.builder
        assert derived.builder["control_interval"] == 1e9


# -- the bundled preset library ------------------------------------------------------


def _outcome(pipe):
    return (pipe.exit_log, pipe.fates.shed_records, pipe.env.events_processed)


class TestPresets:
    @pytest.mark.parametrize("name", bundled_spec_names())
    def test_build_preset_equals_building_the_loaded_spec(self, name):
        by_name = build_preset(Environment(), name)
        by_spec = build(Environment(), load_preset(name))
        assert by_name.spec == by_spec.spec == load_preset(name)
        by_name.run()
        by_spec.run()
        assert _outcome(by_name) == _outcome(by_spec)

    def test_same_preset_twice_records_identical_chunk_ids(self):
        """Chunk ids are run-scoped: a second run in the same process
        sheds the same chunks under the same ids."""
        runs = []
        for _ in range(2):
            pipe = build_preset(Environment(), "overload")
            pipe.run(settle=100)
            runs.append([(r.timestep, r.chunk_id) for r in pipe.fates.shed_records])
        assert runs[0] and runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["overload", "predictive", "failover"])
    def test_benchmark_aliases_take_steps_and_seed(self, name):
        alias = getattr(presets, f"build_{name}_pipeline")
        pipe = alias(Environment(), steps=2, seed=3)
        assert pipe.spec == load_preset(name).override(
            workload=dict(steps=2), builder=dict(seed=3))

    def test_cached_preset_is_read_only(self):
        before = load_preset("fig7")
        digest = hash(before)
        with pytest.raises(TypeError):
            before.builder["seed"] = 99
        derived = before.override(builder=dict(seed=99))
        derived.as_dict()["builder"]["seed"] = 7
        after = load_preset("fig7")
        assert after.builder["seed"] == 1
        assert hash(after) == digest
        assert derived.builder["seed"] == 99

    def test_nested_builder_values_are_read_only(self):
        spec = _spec(builder={"backpressure": {"credit_refresh": 2.0}})
        with pytest.raises(TypeError):
            spec.builder["backpressure"]["credit_refresh"] = 9.0
        spec.as_dict()["builder"]["backpressure"]["credit_refresh"] = 9.0
        assert spec.builder["backpressure"]["credit_refresh"] == 2.0


# -- one construction surface ---------------------------------------------------------

_ROOT = Path(__file__).resolve().parent.parent


def test_pipeline_builder_is_constructed_only_by_spec_build():
    """Every pipeline goes through ``repro.spec.build.build``."""
    needle = "PipelineBuilder" + "("
    allowed = _ROOT / "src" / "repro" / "spec" / "build.py"
    offenders = [
        f"{path.relative_to(_ROOT)}:{lineno}"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((_ROOT / top).rglob("*.py"))
        if path != allowed
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if needle in line
    ]
    assert not offenders, offenders


# -- disabled blocks are no-op objects --------------------------------------------------

#: blocks a built pipeline always carries, as a no-op stand-in when disabled
_ALWAYS_BUILT = ("credits", "predictor", "backpressure", "brownout", "analytics",
                 "failover", "monitoring_overlay", "recovery", "global_manager")


def test_disabled_blocks_need_no_none_guards():
    """Consumers call a block unconditionally: no line of ``src/repro``
    (outside the spec layer and the reference oracles) tests one against
    None or fetches one with a ``getattr`` default, and the retired
    ``transaction_manager`` hook, process-wide chunk counter and registry
    baseline stay gone."""
    blocks = "|".join(_ALWAYS_BUILT)
    guard = re.compile(
        rf"\.({blocks})\s+is\s+(not\s+)?None"
        rf"|getattr\([^)]*[\"']({blocks})[\"'],\s*None\)"
        r"|transaction_manager|_CHUNK_IDS|sample_counters"
    )
    src = _ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(_ROOT)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path.parent.name != "spec"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if guard.search(line)
    ]
    assert not offenders, offenders
