"""The unified planning API: PlanSpec, strategy registry, Planner, sweep."""

import io
import json
import warnings

import pytest

import repro
from repro.api import (
    PlanSpec,
    Planner,
    default_planner,
    get_strategy,
    list_strategies,
    register_strategy,
    sweep,
)
from repro.api.spec import FIDELITY_STRIDES
from repro.api.strategies import _REGISTRY
from repro.core.serialization import SerializationError, load_json, save_json
from repro.exceptions import ConfigurationError

#: Small/fast planning request reused across the module.
SMALL = PlanSpec("bert-large", gpu="a100", stages=2, microbatches=3,
                 freq_stride=24)

BUILTINS = ["envpipe", "max-freq", "min-energy", "perseus", "zeus-global",
            "zeus-per-stage"]


class TestPlanSpec:
    def test_defaults_validate(self):
        spec = PlanSpec("gpt3-xl")
        assert spec.strategy == "perseus"
        assert spec.effective_freq_stride == FIDELITY_STRIDES["fast"]

    def test_explicit_stride_beats_fidelity(self):
        assert SMALL.effective_freq_stride == 24
        assert PlanSpec("gpt3-xl", fidelity="smoke").effective_freq_stride == 16

    @pytest.mark.parametrize("kwargs", [
        {"model": ""},
        {"model": "gpt3-xl", "gpu": ""},
        {"model": "gpt3-xl", "stages": 0},
        {"model": "gpt3-xl", "microbatches": -1},
        {"model": "gpt3-xl", "tensor_parallel": 0},
        {"model": "gpt3-xl", "microbatch_size": 0},
        {"model": "gpt3-xl", "freq_stride": 0},
        {"model": "gpt3-xl", "tau": 0.0},
        {"model": "gpt3-xl", "tau": -1.0},
        {"model": "gpt3-xl", "strategy": ""},
        {"model": "gpt3-xl", "fidelity": "ludicrous"},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlanSpec(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError):
            SMALL.replace(stages=0)

    def test_json_round_trip(self):
        restored = PlanSpec.from_json(SMALL.to_json())
        assert restored == SMALL
        assert hash(restored) == hash(SMALL)

    def test_round_trip_through_file_helpers(self):
        buf = io.StringIO()
        save_json(SMALL, buf)
        buf.seek(0)
        assert load_json(buf) == SMALL

    def test_from_dict_rejects_unknown_fields(self):
        payload = SMALL.to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)

    def test_from_dict_rejects_bad_kind_and_version(self):
        payload = SMALL.to_dict()
        payload["kind"] = "frontier"
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)
        payload = SMALL.to_dict()
        payload["version"] = 999
        with pytest.raises(ConfigurationError):
            PlanSpec.from_dict(payload)

    def test_malformed_payload_via_load_json(self):
        bad = dict(SMALL.to_dict(), stages=0)
        with pytest.raises(SerializationError):
            load_json(io.StringIO(json.dumps(bad)))


class TestStrategyRegistry:
    def test_all_six_builtins_listed(self):
        names = list_strategies()
        for builtin in BUILTINS:
            assert builtin in names

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="perseus"):
            get_strategy("does-not-exist")

    def test_lookup_returns_named_strategy(self):
        for builtin in BUILTINS:
            assert get_strategy(builtin).name == builtin

    def test_function_registration_and_removal(self):
        @register_strategy("test-all-max")
        def _all_max(ctx):
            from repro.baselines.static import max_frequency_plan

            return max_frequency_plan(ctx.dag, ctx.profile)

        try:
            assert "test-all-max" in list_strategies()
            planner = default_planner()
            ours = planner.plan(SMALL.replace(strategy="test-all-max"))
            theirs = planner.plan(SMALL.replace(strategy="max-freq"))
            assert ours.plan == theirs.plan
        finally:
            _REGISTRY.pop("test-all-max", None)
        assert "test-all-max" not in list_strategies()

    def test_class_without_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            register_strategy("bad")(type("NoPlan", (), {}))
        _REGISTRY.pop("bad", None)


class TestPlannerMemoization:
    def test_sweep_profiles_once_per_unique_stack(self):
        planner = Planner()
        specs = [SMALL.replace(strategy=name) for name in BUILTINS]
        # Same model/gpu/partition at two microbatch counts: still one
        # profile (profiles are microbatch-independent), two DAGs.
        specs += [SMALL.replace(microbatches=4),
                  SMALL.replace(strategy="envpipe", microbatches=4)]
        reports = planner.sweep(specs)
        assert len(reports) == len(specs)
        assert planner.stats["model"] == 1
        assert planner.stats["partition"] == 1
        assert planner.stats["profile"] == 1
        assert planner.stats["dag"] == 2
        assert planner.stats["optimizer"] == 2  # one frontier per DAG

    def test_custom_gpu_spec_not_confused_with_registry_name(self):
        import dataclasses

        from repro.gpu.specs import A100_PCIE

        derated = dataclasses.replace(A100_PCIE, tdp_w=250.0)
        planner = Planner()
        stock = planner.build_stack("bert-large", gpu=A100_PCIE, stages=2,
                                    microbatches=2, freq_stride=24)
        custom = planner.build_stack("bert-large", gpu=derated, stages=2,
                                     microbatches=2, freq_stride=24)
        assert planner.stats["profile"] == 2
        assert stock.profile is not custom.profile

    def test_clear_drops_memoized_stages(self):
        planner = Planner()
        planner.plan(SMALL)
        planner.clear()
        planner.plan(SMALL)
        assert planner.stats["profile"] == 2

    def test_second_gpu_triggers_second_profile(self):
        planner = Planner()
        planner.plan(SMALL)
        planner.plan(SMALL.replace(gpu="a40"))
        assert planner.stats["profile"] == 2
        assert planner.stats["partition"] == 2
        assert planner.stats["model"] == 1

    def test_sweep_rows_are_comparable(self):
        planner = Planner()
        rows = sweep(
            (SMALL.replace(strategy=n) for n in BUILTINS), planner=planner
        )
        base = {r.strategy: r for r in rows}["max-freq"]
        assert base.energy_savings_pct == pytest.approx(0.0)
        assert base.slowdown_pct == pytest.approx(0.0)
        for r in rows:
            assert r.baseline_energy_j == pytest.approx(base.energy_j)
            row = r.to_dict()
            assert row["strategy"] == r.strategy
            assert row["energy_j"] > 0

    def test_perseus_report_matches_frontier_lookup(self):
        planner = Planner()
        report = planner.plan(SMALL)
        stack = planner.result(SMALL)
        schedule = stack.optimizer.schedule_for_straggler(None)
        assert report.plan == dict(schedule.frequencies)

    @pytest.mark.parametrize("strategy", ["perseus", "max-freq"])
    def test_plan_builds_its_stack_once(self, monkeypatch, strategy):
        calls = []
        original = Planner.build_stack

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Planner, "build_stack", counting)
        planner = Planner()
        spec = SMALL.replace(strategy=strategy)
        cold = planner.plan(spec, straggler_time=None)
        assert len(calls) == 1
        warm = planner.plan(spec)
        assert len(calls) == 2
        assert warm == cold and warm.plan == cold.plan
        # The public views still assemble (or reuse) the stack themselves.
        ctx = planner.context(spec)
        baseline = planner.baseline_execution(spec)
        assert ctx.tau == planner.result(spec).tau
        assert baseline.iteration_time == cold.baseline_time_s


class TestCachedKeyHashes:
    """ModelSpec/GPUSpec/WorkProfile cache their field hash; it must
    agree with ``__eq__`` exactly like the generated one did."""

    def test_equal_values_hash_alike(self):
        import dataclasses

        from repro.gpu.specs import A100_PCIE
        from repro.models.registry import build_model

        first, second = build_model("bert-large"), build_model("bert-large")
        assert first is not second and first == second
        assert hash(first) == hash(second)
        # ``extra`` is not compared, so it must not be hashed either.
        noted = dataclasses.replace(first, extra={"note": 1})
        assert noted == first and hash(noted) == hash(first)
        copy = dataclasses.replace(A100_PCIE)
        assert copy == A100_PCIE and hash(copy) == hash(A100_PCIE)
        work = first.layers[0].forward
        assert hash(dataclasses.replace(work)) == hash(work)

    def test_field_changes_change_equality_and_lookup(self):
        import dataclasses

        from repro.gpu.specs import A100_PCIE
        from repro.models.registry import build_model

        model = build_model("bert-large")
        derated = dataclasses.replace(A100_PCIE, tdp_w=250.0)
        assert derated != A100_PCIE
        shorter = dataclasses.replace(model, layers=model.layers[:-1])
        assert shorter != model
        table = {model: "model", A100_PCIE: "gpu"}
        assert table[build_model("bert-large")] == "model"
        assert table[dataclasses.replace(A100_PCIE)] == "gpu"
        assert shorter not in table and derated not in table

    def test_hash_is_the_generated_field_hash(self):
        import dataclasses

        from repro.gpu.specs import A40

        fields = tuple(getattr(A40, f.name) for f in dataclasses.fields(A40)
                       if f.compare)
        assert hash(A40) == hash(fields)

    def test_caches_do_not_travel_with_pickles(self):
        import pickle

        from repro.core.store import stable_key
        from repro.keys import HASH_SLOT, TEXT_SLOT
        from repro.models.registry import build_model

        model = build_model("bert-large")
        digest = stable_key(model)
        hash(model)
        assert HASH_SLOT in vars(model) and TEXT_SLOT in vars(model)
        clone = pickle.loads(pickle.dumps(model))
        assert HASH_SLOT not in vars(clone)
        assert TEXT_SLOT not in vars(clone)
        assert clone == model and hash(clone) == hash(model)
        assert stable_key(clone) == digest


class TestPlanPipelineShim:
    def test_emits_deprecation_warning(self):
        with pytest.warns(DeprecationWarning, match="plan_pipeline"):
            repro.plan_pipeline("bert-large", num_stages=2,
                                num_microbatches=2, freq_stride=24)

    def test_shim_identical_to_planner_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            old = repro.plan_pipeline("bert-large", num_stages=2,
                                      num_microbatches=3, freq_stride=24)
        spec = PlanSpec("bert-large", stages=2, microbatches=3,
                        freq_stride=24)
        new = default_planner().result(spec)
        assert old.model is new.model
        assert old.partition is new.partition
        assert old.profile is new.profile
        assert old.dag is new.dag
        assert old.optimizer is new.optimizer
        assert old.frontier.t_min == pytest.approx(new.frontier.t_min)
        assert old.frontier.t_star == pytest.approx(new.frontier.t_star)


class TestServerSpecRegistration:
    def test_register_spec_characterizes(self):
        from repro.runtime.server import PerseusServer

        server = PerseusServer()
        server.register_spec("job-api", SMALL, blocking=True)
        frontier = server.frontier_of("job-api")
        assert frontier.t_min <= frontier.t_star
        schedule = server.current_schedule("job-api")
        assert schedule.iteration_time == pytest.approx(frontier.t_min)

    def test_register_spec_rejects_non_perseus_strategy(self):
        from repro.exceptions import ServerError
        from repro.runtime.server import PerseusServer

        server = PerseusServer()
        with pytest.raises(ServerError, match="zeus-global"):
            server.register_spec(
                "job-bad", SMALL.replace(strategy="zeus-global")
            )


class TestCompareCLI:
    def test_compare_prints_row_per_strategy(self, capsys):
        from repro.cli import main

        rc = main(["compare", "bert-large", "--stages", "2",
                   "--microbatches", "3", "--freq-stride", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        for builtin in BUILTINS:
            assert builtin in out

    def test_plan_accepts_strategy_flag(self, capsys):
        from repro.cli import main

        rc = main(["plan", "bert-large", "--stages", "2",
                   "--microbatches", "3", "--freq-stride", "24",
                   "--strategy", "envpipe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy   : envpipe" in out and "savings" in out
        assert "intrinsic" not in out  # that label is Perseus-only

    def test_straggler_reports_clamping(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "frontier.json"
        assert main(["plan", "bert-large", "--stages", "2",
                     "--microbatches", "3", "--freq-stride", "24",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["straggler", str(out_path),
                     "--degrees", "1.01", "99.0"]) == 0
        out = capsys.readouterr().out
        assert "degree 99.00" in out
        assert "clamped to T*" in out
        # the in-range degree must NOT be flagged as clamped
        in_range_line = [l for l in out.splitlines() if "degree 1.01" in l][0]
        assert "clamped" not in in_range_line
