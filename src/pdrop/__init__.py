"""Staged attention-ranked visual-token pruning in a toy multimodal
decoder, with an exact FLOPs cost model and experiment harness."""

from .costmodel import layer_flops, schedule_cost, strategy_cost, tera, theoretical_saving
from .errors import ConfigError
from .numkernel import RngState
from .pruner import (
    PyramidDrop,
    RandomDrop,
    SingleEarlyDrop,
    UniformCompression,
    Vanilla,
    build_schedule,
    keep_all_schedule,
)
from .toymodel import TOY_CONFIG, ModelConfig, forward_pruned, init_model

# what the README, the demos and the benchmark use; every other name
# stays importable from its own module
__all__ = [
    "TOY_CONFIG", "ConfigError", "ModelConfig", "PyramidDrop", "RandomDrop",
    "RngState", "SingleEarlyDrop", "UniformCompression", "Vanilla", "build_schedule",
    "forward_pruned", "init_model", "keep_all_schedule", "layer_flops",
    "schedule_cost", "strategy_cost", "tera", "theoretical_saving",
]
__version__ = "0.1.0"
