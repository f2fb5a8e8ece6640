"""A small causal decoder instrumented for staged image-token dropping.

Pre-norm residual blocks with RMS normalization, rotary positions, and a
gated three-linear FFN. At each stage boundary the forward hands the
last instruction token's query and the surviving image keys to a ranker,
then physically removes the dropped image rows; kept tokens keep their
original position ids.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, InputError
from .layout import MultimodalSequence
from .numkernel import RngState, gaussian_init, rmsnorm_rows, rope_rotate_rows, softmax_rows
from .pruner import StageSchedule, attention_ranker, decide

INIT_STDDEV = 0.02


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    head_dim: int
    ffn_intermediate: int
    vocab_size: int
    rope_theta: float = 10000.0
    rmsnorm_eps: float = 1e-6

    def validate(self) -> "ModelConfig":
        if self.num_layers < 1:
            raise ConfigError(f"need at least one layer, got {self.num_layers}")
        if self.hidden_size != self.num_heads * self.head_dim:
            raise ConfigError(
                f"hidden_size {self.hidden_size} != heads {self.num_heads} x head_dim {self.head_dim}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary positions, got {self.head_dim}")
        if min(self.num_heads, self.ffn_intermediate, self.vocab_size) < 1:
            raise ConfigError("heads, ffn_intermediate and vocab_size must be positive")
        if self.rope_theta <= 0 or self.rmsnorm_eps <= 0:
            raise ConfigError("rope_theta and rmsnorm_eps must be positive")
        return self


# toy default: small enough for second-scale test runs
TOY_CONFIG = ModelConfig(
    num_layers=8, hidden_size=64, num_heads=4, head_dim=16,
    ffn_intermediate=172, vocab_size=256,
)


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    attn_gain: np.ndarray
    ffn_gain: np.ndarray

    def matrices(self):
        return [self.w_q, self.w_k, self.w_v, self.w_o,
                self.w_gate, self.w_up, self.w_down,
                self.attn_gain, self.ffn_gain]


@dataclass
class DecoderWeights:
    config: ModelConfig
    layers: list[LayerWeights]
    embedding: np.ndarray  # (vocab, d)
    head: np.ndarray       # (d, vocab)


@dataclass
class ForwardTrace:
    hidden: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None
    kept_masks: list[tuple[int, np.ndarray]] = field(default_factory=list)
    positions: np.ndarray | None = None  # original positions of surviving tokens


def init_model(cfg: ModelConfig, seed: int) -> DecoderWeights:
    cfg.validate()
    rng = RngState(seed)
    d, m, v = cfg.hidden_size, cfg.ffn_intermediate, cfg.vocab_size
    layers = []
    for _ in range(cfg.num_layers):
        layers.append(LayerWeights(
            w_q=gaussian_init(rng, d, d, INIT_STDDEV),
            w_k=gaussian_init(rng, d, d, INIT_STDDEV),
            w_v=gaussian_init(rng, d, d, INIT_STDDEV),
            w_o=gaussian_init(rng, d, d, INIT_STDDEV),
            w_gate=gaussian_init(rng, d, m, INIT_STDDEV),
            w_up=gaussian_init(rng, d, m, INIT_STDDEV),
            w_down=gaussian_init(rng, m, d, INIT_STDDEV),
            attn_gain=np.ones(d),
            ffn_gain=np.ones(d),
        ))
    embedding = gaussian_init(rng, v, d, INIT_STDDEV)
    head = gaussian_init(rng, d, v, INIT_STDDEV)
    return DecoderWeights(cfg, layers, embedding, head)


def _embed(w: DecoderWeights, seq: MultimodalSequence) -> np.ndarray:
    d = w.config.hidden_size
    # an empty image segment may have any width
    image = seq.image_embeddings if seq.num_image_tokens else np.empty((0, d))
    if image.shape[1] != d:
        raise InputError(f"image embeddings have dim {image.shape[1]}, model expects {d}")
    text_ids = seq.text_ids
    if text_ids.min() < 0 or text_ids.max() >= w.config.vocab_size:
        raise InputError("text token id outside the vocabulary")
    return np.concatenate([image, w.embedding[text_ids]])


def _layer_forward(lw: LayerWeights, cfg: ModelConfig, x: np.ndarray, positions: np.ndarray):
    """One pre-norm block. Returns the new residual stream and the
    post-rotary per-head (q, k) used by the attention itself."""
    n = x.shape[0]
    nh, hd = cfg.num_heads, cfg.head_dim
    h = rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps)
    # one rotation per projection: each row's position broadcasts over heads
    q = rope_rotate_rows((h @ lw.w_q).reshape(n, nh, hd), positions[:, None], cfg.rope_theta)
    k = rope_rotate_rows((h @ lw.w_k).reshape(n, nh, hd), positions[:, None], cfg.rope_theta)
    v = (h @ lw.w_v).reshape(n, nh, hd)
    # causal mask by position id, not storage order
    allowed = positions[None, :] <= positions[:, None]
    scale = 1.0 / np.sqrt(hd)
    attn_out = np.empty((n, nh, hd), dtype=np.float64)
    for hh in range(nh):
        scores = (q[:, hh, :] @ k[:, hh, :].T) * scale
        scores = np.where(allowed, scores, -np.inf)
        attn_out[:, hh, :] = softmax_rows(scores) @ v[:, hh, :]
    x = x + attn_out.reshape(n, nh * hd) @ lw.w_o
    hf = rmsnorm_rows(x, lw.ffn_gain, cfg.rmsnorm_eps)
    gate = hf @ lw.w_gate
    x = x + ((gate * expit(gate)) * (hf @ lw.w_up)) @ lw.w_down
    return x, q, k


def forward_pruned(
    w: DecoderWeights,
    seq: MultimodalSequence,
    schedule: StageSchedule,
    ranker=attention_ranker,
    _inject=None,
) -> ForwardTrace:
    """The forward: image tokens dropped at the schedule's boundaries are
    physically removed for all later layers; ``keep_all_schedule`` gives
    the unpruned forward. The surviving image tokens always occupy the
    first rows and the instruction tokens follow them; at each boundary
    ``ranker(q_last, k_image, stage)`` scores the image tokens with the last
    instruction token's query. ``_inject=(layer, position, vector)``
    overwrites the hidden state of the token at that original position at
    that boundary, immediately before the drop decision."""
    cfg = w.config
    if sum(schedule.stage_layer_counts) != cfg.num_layers:
        raise ConfigError(
            f"schedule built for {sum(schedule.stage_layer_counts)} layers, model has {cfg.num_layers}"
        )
    if schedule.stage_token_counts[0] != seq.num_image_tokens:
        raise ConfigError(
            f"schedule expects {schedule.stage_token_counts[0]} image tokens, "
            f"sequence has {seq.num_image_tokens}"
        )

    x = _embed(w, seq)
    positions = np.arange(len(seq), dtype=np.int64)
    n_img = seq.num_image_tokens
    num_instruction = seq.instruction_ids.size
    boundaries = set(schedule.boundary_layers)
    trace = ForwardTrace()
    stage = 0
    for layer_no, lw in enumerate(w.layers, start=1):
        x, q, k = _layer_forward(lw, cfg, x, positions)
        trace.hidden.append(x)
        if layer_no not in boundaries:
            continue
        if _inject is not None and _inject[0] == layer_no:
            slot = np.nonzero(positions == _inject[1])[0]
            if not slot.size:
                raise ConfigError(f"token {_inject[1]} no longer survives at layer {layer_no}")
            x = x.copy()
            x[slot[0]] = _inject[2]
        # post-rotary (heads, head_dim) query against (heads, n_img, head_dim) keys
        scores = ranker(q[n_img + num_instruction - 1], np.transpose(k[:n_img], (1, 0, 2)), stage)
        kept = decide(scores, schedule, stage)
        trace.kept_masks.append((layer_no, positions[kept]))
        rows = np.concatenate([kept, np.arange(n_img, len(positions))])
        x = x[rows]
        positions = positions[rows]
        n_img = kept.size
        stage += 1
    trace.logits = x @ w.head
    trace.positions = positions.copy()
    return trace


def inject_at_boundary(
    w: DecoderWeights,
    seq: MultimodalSequence,
    schedule: StageSchedule,
    boundary_layer: int,
    token_index: int,
    replacement: np.ndarray,
    ranker=attention_ranker,
) -> ForwardTrace:
    """Pruned forward with the hidden state of the token at original
    position ``token_index`` overwritten at a boundary, immediately before
    the drop decision is applied there."""
    if boundary_layer not in schedule.boundary_layers:
        raise ConfigError(f"layer {boundary_layer} is not a drop boundary of the schedule")
    if not 0 <= token_index < len(seq):
        raise ConfigError(f"token index {token_index} out of range for length {len(seq)}")
    replacement = np.asarray(replacement, dtype=np.float64)
    if replacement.shape != (w.config.hidden_size,):
        raise ConfigError(
            f"replacement must have shape ({w.config.hidden_size},), got {replacement.shape}"
        )
    return forward_pruned(w, seq, schedule, ranker=ranker,
                          _inject=(boundary_layer, token_index, replacement))


# --- marker model ----------------------------------------------------------

MARKER_AMPLITUDE = 1.0
MARKER_GAIN = 2.5


def build_marker_model(
    cfg: ModelConfig,
    marker_subspace_dims,
    flag_dim: int | None = None,
    margin_onset_layer: int = 1,
) -> DecoderWeights:
    """Constructed weights whose head-0 similarity separates image tokens
    carrying the marker subspace from all others by a large margin.

    The residual stream is left untouched (w_v and w_down are zero), so the
    similarity at every boundary is computed on the raw embeddings. Layers
    below ``margin_onset_layer`` (1-based) get zero q/k weights: their
    ranking scores carry no signal, which models rankings that only become
    informative in deeper layers.
    """
    cfg.validate()
    dims = sorted(set(int(i) for i in np.atleast_1d(np.asarray(marker_subspace_dims, dtype=np.int64))))
    if not dims:
        raise ConfigError("marker subspace must contain at least one dimension")
    if dims[0] < 0 or dims[-1] >= cfg.hidden_size:
        raise ConfigError(f"marker dims {dims} outside hidden size {cfg.hidden_size}")
    if flag_dim is None:
        flag_dim = max(i for i in range(cfg.hidden_size) if i not in dims)
    if flag_dim in dims:
        raise ConfigError(f"flag dim {flag_dim} collides with the marker subspace")
    if not 1 <= margin_onset_layer <= cfg.num_layers:
        raise ConfigError(f"margin onset layer {margin_onset_layer} outside [1, {cfg.num_layers}]")

    d, m, v = cfg.hidden_size, cfg.ffn_intermediate, cfg.vocab_size
    # signal lives in the highest-frequency-free rotary pair of head 0, where
    # the rotation angle is tiny for toy position ranges
    signal_col = cfg.head_dim - 2
    layers = []
    for layer_no in range(1, cfg.num_layers + 1):
        w_q = np.zeros((d, d))
        w_k = np.zeros((d, d))
        if layer_no >= margin_onset_layer:
            w_q[flag_dim, signal_col] = MARKER_GAIN
            for md in dims:
                w_k[md, signal_col] = MARKER_GAIN
        layers.append(LayerWeights(
            w_q=w_q, w_k=w_k,
            w_v=np.zeros((d, d)), w_o=np.zeros((d, d)),
            w_gate=np.zeros((d, m)), w_up=np.zeros((d, m)), w_down=np.zeros((m, d)),
            attn_gain=np.ones(d), ffn_gain=np.ones(d),
        ))
    embedding = np.zeros((v, d))
    embedding[:, flag_dim] = MARKER_AMPLITUDE
    return DecoderWeights(cfg, layers, embedding, np.zeros((d, v)))


# --- serialization ---------------------------------------------------------

_MAGIC = b"PDRW"
_VERSION = 1


def save_weights(w: DecoderWeights, path) -> None:
    cfg = w.config
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<7i", _VERSION, cfg.num_layers, cfg.hidden_size, cfg.num_heads,
            cfg.head_dim, cfg.ffn_intermediate, cfg.vocab_size,
        ))
        fh.write(struct.pack("<2d", cfg.rope_theta, cfg.rmsnorm_eps))
        for lw in w.layers:
            for mat in lw.matrices():
                fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(w.embedding, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(w.head, dtype="<f8").tobytes())


def load_weights(path) -> DecoderWeights:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InputError(f"{path}: not a weight container (bad magic)")
        version, nl, d, nh, hd, m, v = struct.unpack("<7i", fh.read(28))
        if version != _VERSION:
            raise InputError(f"{path}: unsupported container version {version}")
        theta, eps = struct.unpack("<2d", fh.read(16))
        cfg = ModelConfig(nl, d, nh, hd, m, v, theta, eps).validate()

        def mat(rows, cols=None):
            count = rows if cols is None else rows * cols
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise InputError(f"{path}: truncated weight container")
            arr = np.frombuffer(buf, dtype="<f8").astype(np.float64)
            return arr if cols is None else arr.reshape(rows, cols)

        layers = [
            LayerWeights(
                w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), w_o=mat(d, d),
                w_gate=mat(d, m), w_up=mat(d, m), w_down=mat(m, d),
                attn_gain=mat(d), ffn_gain=mat(d),
            )
            for _ in range(nl)
        ]
        embedding = mat(v, d)
        head = mat(d, v)
        if fh.read(1):
            raise InputError(f"{path}: trailing bytes after weights")
    return DecoderWeights(cfg, layers, embedding, head)
