import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrop import harness, layout
from pdrop.costmodel import strategy_cost
from pdrop.errors import ConfigError
from pdrop.harness import (
    STRATEGIES,
    ExperimentSpec,
    FixtureSpec,
    SweepRow,
    make_marker_sequence,
    marker_recall,
    prepare,
    run_compare,
    run_layer_sweep,
    run_single,
    spec_from_json,
    strategy_from_json,
    write_sweep_csv,
)
from pdrop.pruner import PyramidDrop, RandomDrop, SingleEarlyDrop, UniformCompression, Vanilla
from pdrop.numkernel import MAX_COUNT, RngState, gaussian_init
from pdrop.toymodel import (INIT_STDDEV, TOY_CONFIG, build_marker_model, forward_elements, forward_pruned,
                            init_model)


def marker_spec(**overrides) -> ExperimentSpec:
    fixture = overrides.pop("fixture", FixtureSpec(image_tokens=64, marked_count=4))
    return ExperimentSpec(model=TOY_CONFIG, seed=7, fixture=fixture, **overrides)


class TestFixture:
    def test_marked_placement_high(self):
        seq, marked = make_marker_sequence(TOY_CONFIG, FixtureSpec(16, 3), 0)
        assert list(marked) == [13, 14, 15]
        assert seq.num_image_tokens == 16

    def test_random_placement_is_seeded(self):
        fx = FixtureSpec(32, 5, marked_placement="random")
        _, a = make_marker_sequence(TOY_CONFIG, fx, 3)
        _, b = make_marker_sequence(TOY_CONFIG, fx, 3)
        _, c = make_marker_sequence(TOY_CONFIG, fx, 4)
        assert np.array_equal(a, b)
        assert a.size == 5
        assert not np.array_equal(a, c) or True  # different seed usually differs

    def test_too_many_marked(self):
        with pytest.raises(ConfigError):
            make_marker_sequence(TOY_CONFIG, FixtureSpec(4, 5), 0)

    def test_forward_size_bound_checked_before_building(self, monkeypatch):
        fixture = FixtureSpec(16, 3, instruction_length=5, answer_length=2)
        elements = forward_elements(TOY_CONFIG, 16 + 5 + 2)
        monkeypatch.setattr(layout, "MAX_ELEMENTS", elements)
        assert len(make_marker_sequence(TOY_CONFIG, fixture, 0)[0]) == 23
        monkeypatch.setattr(layout, "MAX_ELEMENTS", elements - 1)
        monkeypatch.setattr(harness, "RngState", None)  # reached only past the check
        with pytest.raises(ConfigError, match=f"a forward of 23 tokens: {elements} elements"):
            make_marker_sequence(TOY_CONFIG, fixture, 0)
        with pytest.raises(ConfigError, match="a forward of"):
            make_marker_sequence(TOY_CONFIG, FixtureSpec(16, 3, instruction_length=10**18), 0)


class TestCompare:
    def test_pyramid_keeps_all_marked(self):
        spec = marker_spec(strategies=[Vanilla(), PyramidDrop(4, 0.5)])
        vanilla, pdrop = run_compare(spec)
        assert vanilla.recall == 1.0
        assert pdrop.recall == 1.0
        assert pdrop.cost.total < vanilla.cost.total
        assert 0.0 < pdrop.cost.ratio < 0.5

    def test_random_drop_usually_loses_marked(self):
        spec = marker_spec(strategies=[PyramidDrop(4, 0.5), RandomDrop(4, 0.5, seed=1)])
        pdrop, random_drop = run_compare(spec)
        assert pdrop.recall == 1.0
        assert random_drop.recall < 1.0  # final keep is 8 of 64; prob ~1e-4 otherwise

    def test_deterministic_digests(self):
        spec = marker_spec(strategies=[Vanilla(), PyramidDrop(4, 0.5)])
        first = run_compare(spec)
        second = run_compare(spec)
        for a, b in zip(first, second):
            assert a.digest == b.digest
            assert a.recall == b.recall

    def test_masks_nested(self):
        spec = marker_spec(strategies=[PyramidDrop(4, 0.5)])
        report = run_compare(spec)[0]
        sets = [set(k.tolist()) for _, k in report.kept_masks]
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger

    def test_uniform_is_cost_only(self):
        spec = marker_spec(strategies=[UniformCompression(32)])
        with pytest.raises(ConfigError):
            run_compare(spec)

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ConfigError):
            run_compare(marker_spec(strategies=[]))


@given(st.sets(st.integers(0, 99), min_size=1), st.sets(st.integers(0, 99)))
def test_marker_recall_counts_the_marked_positions_kept(marked, kept):
    marked, kept = (np.array(sorted(p), dtype=np.int64) for p in (marked, kept))
    assert marker_recall(kept, marked) == np.isin(marked, kept).sum() / marked.size


def test_marker_recall_is_one_when_nothing_is_dropped_or_marked():
    assert marker_recall(None, np.array([3, 5])) == 1.0
    assert marker_recall(np.array([0, 1]), np.empty(0, dtype=np.int64)) == 1.0


class TestSweep:
    def test_keep_all_ratio_has_full_recall(self):
        spec = marker_spec(sweep_layers=[2, 4], sweep_ratios=[1.0])
        for row in run_layer_sweep(spec):
            assert row.recall == 1.0
            assert row.kept_count == 64

    def test_marker_model_recall_is_one_everywhere(self):
        spec = marker_spec(sweep_layers=[1, 2, 4, 6], sweep_ratios=[0.125])
        for row in run_layer_sweep(spec):
            assert row.recall == 1.0  # margin holds at every layer by construction

    def test_margin_onset_separates_layers(self):
        spec = marker_spec(sweep_layers=[1, 2, 3, 4, 5, 6, 7],
                           sweep_ratios=[0.1], margin_onset_layer=4)
        rows = run_layer_sweep(spec)
        early = [r.recall for r in rows if r.layer < 4]
        late = [r.recall for r in rows if r.layer >= 4]
        assert np.mean(early) < np.mean(late)
        assert np.mean(late) == 1.0

    def test_layer_out_of_range(self):
        spec = marker_spec(sweep_layers=[8], sweep_ratios=[0.5])
        with pytest.raises(ConfigError):
            run_layer_sweep(spec)

    def test_rows_in_grid_order_and_csv(self, tmp_path):
        spec = marker_spec(sweep_layers=[2, 4], sweep_ratios=[0.25, 0.5])
        rows = run_layer_sweep(spec)
        assert [(r.layer, r.keep_ratio) for r in rows] == \
               [(2, 0.25), (2, 0.5), (4, 0.25), (4, 0.5)]
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "layer,keep_ratio,recall,kept_count,flops"
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(SweepRow)]
        assert len(lines) == 5


def per_cell_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """Reference route for ``run_layer_sweep``: one full forward per
    (layer, ratio) cell with that cell's single-drop schedule."""
    plan = prepare(spec)
    weights, seq, marked = plan.weights, plan.seq, plan.marked
    cfg = spec.model
    v0 = seq.num_image_tokens
    rows = []
    for layer in spec.sweep_layers:
        for ratio in spec.sweep_ratios:
            strategy = SingleEarlyDrop(drop_layer=layer, keep_ratio=ratio)
            schedule = strategy.schedule(cfg.num_layers, v0)
            trace = forward_pruned(weights, seq, schedule)
            cost = strategy_cost(strategy, cfg.num_layers, v0, cfg.hidden_size, cfg.ffn_intermediate)
            rows.append(SweepRow(
                layer=layer,
                keep_ratio=ratio,
                recall=marker_recall(trace.kept_masks[-1][1], marked),
                kept_count=schedule.stage_token_counts[-1],
                flops=cost.total,
            ))
    return rows


@st.composite
def sweep_specs(draw):
    v0 = draw(st.integers(0, 24))
    fixture = FixtureSpec(
        image_tokens=v0,
        marked_count=draw(st.integers(0, min(4, v0))),
        marked_placement=draw(st.sampled_from(["high", "low", "random"])),
    )
    last = TOY_CONFIG.num_layers - 1
    return ExperimentSpec(
        model=TOY_CONFIG,
        seed=draw(st.integers(0, 2**31 - 1)),
        fixture=fixture,
        sweep_layers=draw(st.lists(st.integers(1, last), min_size=1, max_size=6)),
        sweep_ratios=draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                   min_size=1, max_size=4)),
        margin_onset_layer=draw(st.integers(1, last)),
    )


@settings(max_examples=100, deadline=None)
@given(sweep_specs())
@example(marker_spec(
    fixture=FixtureSpec(image_tokens=64, marked_placement="random"),
    sweep_layers=[1, 2, 4, 6], sweep_ratios=[0.1, 0.3, 0.5, 0.7, 0.9],
))
@example(marker_spec(
    fixture=FixtureSpec(image_tokens=24, marked_placement="low"),
    sweep_layers=[6, 2, 2, 1, 4], sweep_ratios=[0.0, 1.0, 0.5], margin_onset_layer=4,
))
def test_one_forward_sweep_matches_per_cell_forwards(spec):
    assert run_layer_sweep(spec) == per_cell_sweep(spec)


def test_rope_distance_bias_pinned_at_9patch_geometry():
    """The marker signal sits in rotary pair head_dim - 2, which turns by
    theta^(-(head_dim - 2) / head_dim) rad per position (3.2e-4 at theta
    1e4). Past about 4967 positions from the last instruction token the
    marked keys score below the noise, so at V0=5184 recall depends on
    where the markers sit; theta 1e6 slows the rotation and restores it."""
    recalls = {}
    for placement, theta in [("low", 1e4), ("random", 1e4), ("high", 1e4), ("low", 1e6)]:
        spec = ExperimentSpec(
            model=dataclasses.replace(TOY_CONFIG, rope_theta=theta),
            seed=7,
            fixture=FixtureSpec(image_tokens=5184, marked_count=4, marked_placement=placement),
            strategy=PyramidDrop(4, 0.5),
        )
        recalls[placement, theta] = run_single(spec).recall
    assert recalls == {("low", 1e4): 0.0, ("random", 1e4): 0.75,
                       ("high", 1e4): 1.0, ("low", 1e6): 1.0}


class TestRandomDrop:
    def test_kept_sets_ignore_the_model(self):
        # a random drop's kept sets come from its seeds alone: the marker
        # model and random weights, which rank differently, keep the same
        plan = prepare(marker_spec(), [RandomDrop(4, 0.5, seed=3)])
        (_, schedule, ranker), = plan.runs
        models = (plan.weights, init_model(TOY_CONFIG, 3))

        def masks(**kwargs):
            return [[(layer, kept.tolist()) for layer, kept in
                     forward_pruned(weights, plan.seq, schedule, **kwargs).kept_masks]
                    for weights in models]

        ranked = masks()
        assert ranked[0] != ranked[1]
        random = masks(ranker=ranker)
        assert random[0] == random[1]
        assert [len(kept) for _, kept in random[0]] == [32, 16, 8]


class TestPrepare:
    @pytest.mark.parametrize("from_file", [False, True], ids=["generated", "file"])
    def test_builds_the_marker_model_once(self, tmp_path, monkeypatch, from_file):
        built = []

        def counted(cfg, dims, margin_onset_layer):
            built.append(tuple(dims))
            return build_marker_model(cfg, dims, margin_onset_layer=margin_onset_layer)

        monkeypatch.setattr(harness, "build_marker_model", counted)
        if from_file:
            path = tmp_path / "fixture.json"
            path.write_text(json.dumps({"image": [[0.0] * 64] * 4, "instruction": [1, 2]}))
            spec = ExperimentSpec(model=TOY_CONFIG, fixture_path=str(path))
        else:
            spec = marker_spec(fixture=FixtureSpec(image_tokens=16, marker_dims=(5, 6)))
        plan = prepare(spec)
        # a file fixture's model takes the default marker dims
        assert built == [(0, 1, 2, 3) if from_file else (5, 6)]
        assert plan.seq.num_image_tokens == (4 if from_file else 16)
        assert plan.marked.size == (0 if from_file else 4)

    def test_resolves_every_strategy_before_any_forward(self, layer_forwards):
        strategies = [Vanilla(), RandomDrop(4, 0.5, seed=1)]
        plan = prepare(marker_spec(), strategies)
        assert [(s, schedule) for s, schedule, _ in plan.runs] == \
               [(s, s.schedule(8, 64)) for s in strategies]
        with pytest.raises(ConfigError, match="cost-only"):
            prepare(marker_spec(), [Vanilla(), UniformCompression(32)])
        with pytest.raises(ConfigError, match="drop layer 9"):
            prepare(marker_spec(), [Vanilla(), SingleEarlyDrop(drop_layer=9)])
        assert layer_forwards == []


@pytest.mark.parametrize("seed, kept", [
    (-1, [3, 4, 5, 17, 18, 33, 44, 58]),
    (0, [15, 18, 26, 29, 30, 34, 44, 47]),
    (MAX_COUNT, [3, 10, 25, 39, 40, 45, 59, 61]),
])
def test_seeds_within_the_bound_keep_their_runs(seed, kept):
    # a random drop's kept sets come from the seed's integer stream alone,
    # so they are the same on every platform
    report = run_single(ExperimentSpec(TOY_CONFIG, seed=seed, strategy=RandomDrop(4, 0.5)))
    layer, positions = report.kept_masks[-1]
    assert (layer, positions.tolist()) == (6, kept)
    d = TOY_CONFIG.hidden_size
    assert np.array_equal(init_model(TOY_CONFIG, seed).layers[0].w_q,
                          gaussian_init(RngState(seed), d, d, INIT_STDDEV))


@pytest.mark.parametrize("seed", [2**64 + 7, 2**64 - 1, MAX_COUNT + 1, -MAX_COUNT - 1])
def test_seed_past_the_bound_is_refused(seed):
    # derive_seed folds a seed onto its low 64 bits, so 2**64 + 7 would run
    # as 7 and -1 as 2**64 - 1; a library caller is refused as a config is
    message = re.escape(f"seed: {seed} is past the bound of {MAX_COUNT}")
    with pytest.raises(ConfigError, match=message):
        run_single(ExperimentSpec(TOY_CONFIG, seed=seed))
    with pytest.raises(ConfigError, match=message):
        init_model(TOY_CONFIG, seed)


class TestEmitMasks:
    """A run report emits its kept masks as its ``stages``."""

    def test_mask_file_shape(self):
        spec = marker_spec(strategy=PyramidDrop(4, 0.5),
                           fixture=FixtureSpec(image_tokens=16, marked_count=2))
        stages = run_single(spec).to_json()["stages"]
        assert [len(s["kept"]) for s in stages] == [8, 4, 2]
        assert [s["boundary"] for s in stages] == [2, 4, 6]
        kept_sets = [set(s["kept"]) for s in stages]
        for smaller, larger in zip(kept_sets[1:], kept_sets):
            assert smaller <= larger

    def test_vanilla_report_has_no_masks(self):
        assert run_single(marker_spec(strategy=Vanilla())).to_json()["stages"] == []


class TestSpecParsing:
    def test_strategy_parsing(self):
        assert strategy_from_json("vanilla") == Vanilla()
        assert strategy_from_json({"name": "pdrop", "stages": 3, "keep_ratio": 0.4}) == \
               PyramidDrop(3, 0.4)
        assert strategy_from_json({"name": "fastv"}) == SingleEarlyDrop(2, 0.5)
        assert strategy_from_json({"name": "random", "seed": 2, "keep_ratio": 1}) == \
               RandomDrop(4, 1.0, seed=2)
        for bad in ({"name": "tome"}, {"name": ["pdrop"]}, {"stages": 4},
                    {"name": "pdrop", "stages": "four"}, {"name": "fastv", "keep_ratio": None},
                    {"name": "random", "seed": float("inf")}, {"name": "pdrop", "stages": 3.5},
                    {"name": "pdrop", "stages": True}, {"name": "pdrop", "keep_ration": 0.3},
                    {"name": "fastv", "stages": 4}, {"name": "vanilla", "keep_ratio": 0.5}):
            with pytest.raises(ConfigError):
                strategy_from_json(bad)

    def test_spec_from_json(self):
        obj = {
            "model": {"num_layers": 8, "hidden_size": 64, "num_heads": 4,
                      "head_dim": 16, "ffn_intermediate": 172, "vocab_size": 256},
            "seed": 9,
            "fixture": {"image_tokens": 32, "marked_count": 2},
            "strategies": ["vanilla", {"name": "random", "seed": 5}],
            "sweep": {"layers": [2, 4], "ratios": [0.5]},
        }
        spec = spec_from_json(obj)
        assert spec.model == TOY_CONFIG
        assert spec.seed == 9
        assert spec.fixture.image_tokens == 32
        assert spec.strategies == [Vanilla(), RandomDrop(4, 0.5, seed=5)]
        assert spec.sweep_layers == [2, 4]

    def test_fixture_fields_coerced(self):
        model = dataclasses.asdict(TOY_CONFIG)
        spec = spec_from_json({"model": model, "fixture": {
            "image_tokens": "32", "noise": 0, "marker_dims": ["0", 1.0]}})
        assert spec.fixture == FixtureSpec(image_tokens=32, noise=0.0, marker_dims=(0, 1))
        for bad in ({"image_tokens": "many"}, {"marker_dims": 3}, {"typo": 1}, "high", [1],
                    {"image_tokens": 16.7}, {"image_tokens": True}, {"marker_dims": [0, 1.5]},
                    {"marker_dims": [True]}, {"marker_dims": "01"}):
            with pytest.raises(ConfigError):
                spec_from_json({"model": model, "fixture": bad})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_spec_from_json_total(self, data):
        # any JSON object parses to a typed spec or fails with a ConfigError
        obj = data.draw(config_objects())
        try:
            spec = spec_from_json(obj)
        except ConfigError:
            return
        assert isinstance(spec, ExperimentSpec)
        for section in (spec.model, spec.fixture, spec.strategy, *spec.strategies):
            if section is not None:
                for f in dataclasses.fields(section):
                    kind = {"int": int, "float": float, "str": str}.get(f.type, tuple)
                    assert isinstance(getattr(section, f.name), kind)
        assert all(isinstance(x, int) for x in spec.sweep_layers)
        assert all(isinstance(x, float) for x in spec.sweep_ratios)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)


def objects_with(keys, values=JSON):
    """JSON objects whose keys are mostly the given field names."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), values, max_size=len(keys))


def config_objects():
    model = dataclasses.asdict(TOY_CONFIG)
    fixture_keys = [f.name for f in dataclasses.fields(FixtureSpec)] + ["path"]
    strategy = st.sampled_from(sorted(STRATEGIES)) | objects_with(
        ["name", "stages", "keep_ratio", "drop_layer", "token_count", "seed"],
        st.sampled_from(sorted(STRATEGIES)) | JSON)
    sections = {
        "seed": JSON,
        "fixture": objects_with(fixture_keys) | JSON,
        "strategy": strategy | JSON,
        "strategies": st.lists(strategy, max_size=3) | JSON,
        "sweep": objects_with(["layers", "ratios"], st.lists(JSON, max_size=3) | JSON) | JSON,
        "margin_onset_layer": JSON,
    }
    # a valid model half the time, so that the other sections get parsed
    models = st.one_of(st.just(model), objects_with(list(model), st.integers(-1, 64) | JSON))
    return st.fixed_dictionaries({"model": models}, optional=sections)
