import numpy as np
import pytest

from pdrop.costmodel import (
    layer_flops,
    schedule_cost,
    strategy_cost,
    tera,
    theoretical_saving,
)
from pdrop.errors import ConfigError
from pdrop.pruner import (
    PyramidDrop,
    SingleEarlyDrop,
    StageSchedule,
    UniformCompression,
    Vanilla,
    build_schedule,
)

# 7B-class decoder geometry used throughout the published tables
D7B, M7B, J7B = 4096, 11008, 32


class TestLayerFlops:
    def test_hand_arithmetic(self):
        # 4*2*16 + 2*4*4 + 3*2*4*8 = 352
        assert layer_flops(2, 4, 8) == 352

    def test_zero_tokens(self):
        assert layer_flops(0, D7B, M7B) == 0

    def test_vanilla_7b(self):
        assert tera(32 * layer_flops(576, D7B, M7B)) == 3.82


def staged(layers, tokens):
    return schedule_cost(StageSchedule(layers, tokens), D7B, M7B)


class TestStagedFlops:
    def test_default_staging(self):
        report = staged((8, 8, 8, 8), (576, 288, 144, 72))
        assert tera(report.total) == 1.78
        assert report.avg_tokens == 270.0
        assert report.total == sum(report.per_stage)

    def test_high_resolution_staging(self):
        report = staged((8, 8, 8, 8), (2880, 1440, 720, 360))
        assert tera(report.total) == 9.46

    def test_single_stage_degenerates(self):
        report = staged((32,), (576,))
        assert report.total == 32 * layer_flops(576, D7B, M7B)
        assert report.ratio == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            StageSchedule((8, 8), (576,))

    def test_monotone_in_each_stage_count(self):
        base = staged((8, 8, 8, 8), (576, 288, 144, 72)).total
        for i, bumped in enumerate([(577, 288, 144, 72), (576, 289, 144, 72),
                                    (576, 288, 145, 72), (576, 288, 144, 73)]):
            assert staged((8, 8, 8, 8), bumped).total > base, i


class TestTheoreticalSaving:
    def test_default_setting(self):
        assert theoretical_saving(0.5, 4) == 0.46875

    def test_keep_all_limit(self):
        assert theoretical_saving(1.0, 4) == 1.0
        assert theoretical_saving(1.0, 1) == 1.0

    def test_single_stage(self):
        assert theoretical_saving(0.5, 1) == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            theoretical_saving(0.0, 4)
        with pytest.raises(ConfigError):
            theoretical_saving(0.5, 0)

    def test_linear_cost_agreement(self):
        # with a linear per-layer cost c*n and pure exponential counts,
        # staged/vanilla equals the closed form exactly
        for ratio, stages, v0 in [(0.5, 4, 576), (0.5, 3, 64), (0.25, 2, 256)]:
            counts = [v0 * ratio**s for s in range(stages)]
            staged = sum(8 * n for n in counts)
            vanilla = 8 * stages * v0
            assert staged / vanilla == pytest.approx(theoretical_saving(ratio, stages), abs=1e-15)


class TestStrategyCost:
    def test_fastv_schedule(self):
        report = strategy_cost(SingleEarlyDrop(drop_layer=2, keep_ratio=0.5), J7B, 576, D7B, M7B)
        assert tera(report.total) == 2.01
        assert report.avg_tokens == 306.0

    def test_uniform_compression(self):
        report = strategy_cost(UniformCompression(288), J7B, 576, D7B, M7B)
        assert tera(report.total) == 1.89
        # reference is still the uncompressed width
        assert report.vanilla == 32 * layer_flops(576, D7B, M7B)

    def test_vanilla_high_resolution(self):
        report = strategy_cost(Vanilla(), J7B, 5184, D7B, M7B)
        assert tera(report.total) == 40.6
        assert report.ratio == 1.0

    def test_pyramid_vs_schedule_cost_agree(self):
        via_strategy = strategy_cost(PyramidDrop(4, 0.5), J7B, 576, D7B, M7B)
        via_schedule = schedule_cost(build_schedule(J7B, 4, 0.5, 576), D7B, M7B)
        assert via_strategy.total == via_schedule.total

    def test_equal_consecutive_stages_merge(self):
        schedule = build_schedule(J7B, 4, 1.0, 576)
        assert len(schedule_cost(schedule, D7B, M7B).per_stage) == 4
        merged = strategy_cost(PyramidDrop(4, 1.0), J7B, 576, D7B, M7B)
        assert merged.per_stage == (32 * layer_flops(576, D7B, M7B),)
        assert merged.total == schedule_cost(schedule, D7B, M7B).total

    def test_dominance(self):
        for ratio in (0.3, 0.5, 0.9):
            report = strategy_cost(PyramidDrop(4, ratio), J7B, 576, D7B, M7B)
            assert report.total < report.vanilla
            assert 0.0 < report.ratio < 1.0


def test_report_json_shape():
    obj = strategy_cost(PyramidDrop(4, 0.5), J7B, 576, D7B, M7B).to_json()
    assert set(obj) == {"per_stage", "total", "vanilla", "ratio", "avg_tokens", "unit"}
    assert obj["unit"] == "FLOPs"
    assert sum(obj["per_stage"]) == obj["total"]


def test_tera_rounding():
    assert tera(1_777_000_000_000) == 1.78
    assert tera(10_980_000_000_000) == 11.0
    assert tera(0) == 0.0
