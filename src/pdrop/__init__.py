"""Staged attention-ranked visual-token pruning in a toy multimodal
decoder, with an exact FLOPs cost model and experiment harness."""

from .costmodel import layer_flops, schedule_cost, strategy_cost, tera, theoretical_saving
from .errors import ConfigError
from .numkernel import RngState, softmax_rows
from .pruner import (
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    StageSchedule,
    UniformCompression,
    Vanilla,
    build_schedule,
    decide,
    keep_all_schedule,
    rank_image_tokens,
)
from .toymodel import TOY_CONFIG, ForwardTrace, ModelConfig, forward_plans, forward_pruned, init_model

# what the README, the demos and the benchmark use; every other name
# stays importable from its own module
__all__ = [
    "TOY_CONFIG", "ConfigError", "ForwardTrace", "ModelConfig", "PyramidDrop",
    "RandomDrop", "RngState", "SingleEarlyDrop", "StageSchedule", "UniformCompression",
    "Vanilla", "build_schedule", "decide", "forward_plans", "forward_pruned",
    "init_model", "keep_all_schedule", "layer_flops", "rank_image_tokens",
    "schedule_cost", "softmax_rows", "strategy_cost", "tera", "theoretical_saving",
]
__version__ = "0.1.0"
