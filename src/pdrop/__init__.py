"""Staged attention-ranked visual-token pruning in a toy multimodal
decoder, with an exact FLOPs cost model and experiment harness."""

from .costmodel import (
    CostReport,
    layer_flops,
    schedule_cost,
    strategy_cost,
    tera,
    theoretical_saving,
)
from .errors import BoundsError, ConfigError, InputError, PdropError, ShapeError
from .layout import (
    MultimodalSequence,
    build_sequence,
    load_sequence,
    sequence_from_json,
)
from .numkernel import RngState, arg_topk, gaussian_init, softmax_rows
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
from .toymodel import (
    TOY_CONFIG,
    DecoderWeights,
    ForwardTrace,
    ModelConfig,
    build_marker_model,
    forward_pruned,
    init_model,
    inject_at_boundary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
