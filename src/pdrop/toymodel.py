"""A small causal decoder instrumented for staged image-token dropping.

Pre-norm residual blocks with RMS normalization, rotary positions, and a
gated three-linear FFN. At each stage boundary the forward scores the
surviving image keys against the last instruction token's query once,
hands the scores to a ranker, then physically removes the dropped image
rows; kept tokens keep their original position ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .layout import MultimodalSequence, check_elements, check_image_size
from .numkernel import RngState, gaussian_init, rmsnorm_rows, rope_rotate_rows, rope_table, softmax_rows
from .pruner import StageSchedule, decide, identity_ranker, rank_image_tokens

INIT_STDDEV = 0.02
# query rows per attention block: on 2 vCPUs with one BLAS thread, 32 is the
# fastest on both benchmark prefills (16 ties at toy V0=1152) and 64 to 256
# are progressively slower
ATTENTION_BLOCK_ROWS = 32


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

    def __post_init__(self):
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
        # the elements of init_model's and build_marker_model's weights
        d, m = self.hidden_size, self.ffn_intermediate
        check_elements("model weights", self.num_layers * (4 * d * d + 3 * d * m + 2 * d)
                       + 2 * self.vocab_size * d, ConfigError)


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


@dataclass
class DecoderWeights:
    config: ModelConfig
    layers: list[LayerWeights]
    embedding: np.ndarray  # (vocab, d)
    head: np.ndarray       # (d, vocab)


@dataclass
class ForwardTrace:
    """What one forward returns. ``hidden`` holds one array, the final
    layer's hidden states of the surviving tokens; earlier layers' states
    are not kept."""

    hidden: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None
    kept_masks: list[tuple[int, np.ndarray]] = field(default_factory=list)
    positions: np.ndarray | None = None  # original positions of surviving tokens


def init_model(cfg: ModelConfig, seed: int) -> DecoderWeights:
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


# the diagonal block's mask: rows strictly ascend by position id, so a
# query row never sees a key row after it
_ABOVE_DIAGONAL = np.triu(np.ones((ATTENTION_BLOCK_ROWS, ATTENTION_BLOCK_ROWS), dtype=bool), 1)


def _causal_attention(qh, kt, vh, out, scratch):
    """Causal attention of every head at once, ATTENTION_BLOCK_ROWS query
    rows at a time, into ``out`` (heads, n, head_dim). Takes the post-rotary
    queries ``qh`` (heads, n, head_dim), which it scales in place by
    1/sqrt(head_dim), the keys ``kt`` (heads, head_dim, n) and the values
    ``vh`` (heads, n, head_dim); ``scratch`` is a flat buffer of at least
    heads * ATTENTION_BLOCK_ROWS * (n + 1) floats for the row sums and the
    score block. Rows strictly ascend by position id (kept rows stay in
    order, image rows precede text rows), so query rows [r0, r1) see only
    keys [0, r1) and only the diagonal block needs a mask, its strict upper
    triangle. The weights stay unnormalised through the value product, and
    its rows x head_dim result, not the rows x r1 block, is divided by the
    row sums."""
    nh, n, hd = qh.shape
    qh *= 1.0 / np.sqrt(hd)
    for r0 in range(0, n, ATTENTION_BLOCK_ROWS):
        r1 = min(r0 + ATTENTION_BLOCK_ROWS, n)
        rows = r1 - r0
        sums = scratch[:nh * rows].reshape(nh, rows, 1)
        block = scratch[nh * rows:nh * rows * (r1 + 1)].reshape(nh, rows, r1)
        np.matmul(qh[:, r0:r1], kt[:, :, :r1], out=block)
        np.copyto(block[:, :, r0:], -np.inf, where=_ABOVE_DIAGONAL[:rows, :rows])
        block_out = out[:, r0:r1]
        np.matmul(softmax_rows(block, out=block, sums=sums), vh[:, :r1], out=block_out)
        block_out /= sums


def _workspace_sizes(cfg: ModelConfig, n: int) -> tuple[int, int]:
    """The elements of ``_workspace``'s two buffers."""
    d, m, hd = cfg.hidden_size, cfg.ffn_intermediate, cfg.head_dim
    shared = max(n * (hd + d + d // 2), cfg.num_heads * ATTENTION_BLOCK_ROWS * (n + 1))
    return n * d, max(3 * n * d + shared, 2 * n * m)


def forward_elements(cfg: ModelConfig, n: int) -> int:
    """The elements a forward over ``n`` tokens holds at most: its residual
    stream plus the larger of its workspace and its logits, which are
    built once the workspace is freed."""
    return n * cfg.hidden_size + max(sum(_workspace_sizes(cfg, n)), n * cfg.vocab_size)


def _workspace(cfg: ModelConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The block buffers of a forward whose widest layer has ``n`` rows: an
    n x d buffer and one flat arena. During attention the arena holds an
    n x d projection scratch (which then holds the values and the output
    projection), the head-major queries and keys, and a shared region: the
    rotary cos/sin table, the rotated rows and the rotary scratch while q
    and k are rotated, the row sums and the score block after that. The
    two n x m FFN buffers reuse the arena after attention. Every layer of
    the forward works in views of them sized for its own, never larger,
    row count."""
    rows, arena = _workspace_sizes(cfg, n)
    return np.empty(rows), np.empty(arena)


def _silu(gate, scratch):
    """SiLU in place: ``gate / (1 + exp(-gate))`` with numpy's vector exp,
    ``scratch`` (of the shape of ``gate``) holding the denominator. Where
    exp(-gate) overflows, the quotient is -0.0, SiLU's limit."""
    np.negative(gate, out=scratch)
    with np.errstate(over="ignore"):
        np.exp(scratch, out=scratch)
    scratch += 1.0
    gate /= scratch
    return gate


def _layer_forward(lw: LayerWeights, cfg: ModelConfig, x: np.ndarray, positions: np.ndarray,
                   workspace, rank=None):
    """One pre-norm block: adds both residual updates to ``x`` in place and
    writes every intermediate into views of ``workspace`` (see
    ``_workspace``). With ``rank=(row, n_img)`` it returns the ranking
    scores of the first ``n_img`` keys against the query of ``row``, taken
    from the post-rotary q and kᵀ before the attention scales q in place."""
    n, d, m = x.shape[0], cfg.hidden_size, cfg.ffn_intermediate
    nh, hd = cfg.num_heads, cfg.head_dim
    h = workspace[0][:n * d].reshape(n, d)
    arena = workspace[1]
    t = arena[:n * d].reshape(n, d)
    qh = arena[n * d:2 * n * d].reshape(nh, n, hd)
    kt = arena[2 * n * d:3 * n * d].reshape(nh, hd, n)
    shared = arena[3 * n * d:]
    rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps, out=h)
    # one table for both rotations: each row's position broadcasts over heads
    table = rope_table(positions[:, None], hd, cfg.rope_theta,
                       out=shared[:n * hd].reshape(2, n, 1, hd // 2))
    rotated = shared[n * hd:n * (hd + d)].reshape(n, nh, hd)
    scratch = shared[n * (hd + d):n * (hd + d + d // 2)].reshape(n, nh, hd // 2)
    for w_proj, head_major in ((lw.w_q, qh.transpose(1, 0, 2)), (lw.w_k, kt.transpose(2, 0, 1))):
        np.matmul(h, w_proj, out=t)
        # rotating into rows and copying them into q or kᵀ at once beats
        # writing each product through the head-major view
        rope_rotate_rows(t.reshape(n, nh, hd), table, out=rotated, scratch=scratch)
        np.copyto(head_major, rotated)
    del table, rotated, scratch  # dead: the score block overwrites them
    scores = None if rank is None else rank_image_tokens(qh[:, rank[0]], kt[:, :, :rank[1]])
    values = np.matmul(h, lw.w_v, out=t).reshape(n, nh, hd).transpose(1, 0, 2)
    _causal_attention(qh, kt, values, h.reshape(n, nh, hd).transpose(1, 0, 2), shared)
    x += np.matmul(h, lw.w_o, out=t)
    rmsnorm_rows(x, lw.ffn_gain, cfg.rmsnorm_eps, out=h)
    gate = arena[:n * m].reshape(n, m)
    up = arena[n * m:2 * n * m].reshape(n, m)
    # SiLU(gate) * up, with the up buffer holding SiLU's denominator first
    _silu(np.matmul(h, lw.w_gate, out=gate), up)
    gate *= np.matmul(h, lw.w_up, out=up)
    x += np.matmul(gate, lw.w_down, out=h)
    return scores


def forward_pruned(
    w: DecoderWeights,
    seq: MultimodalSequence,
    schedule: StageSchedule,
    ranker=identity_ranker,
    observe=None,
) -> ForwardTrace:
    """The forward: image tokens dropped at the schedule's boundaries are
    physically removed for all later layers; ``keep_all_schedule`` gives
    the unpruned forward. The surviving image tokens always occupy the
    first rows and the instruction tokens follow them; at each boundary
    the block scores them once (``rank_image_tokens``) and the kept set is
    the highest of ``ranker(scores, stage)``. Before that decision, a given
    ``observe(layer, x, positions, scores)`` sees the boundary: its 1-based
    layer, the live hidden rows ``x`` (not a copy: a write into them
    carries into every later layer), their original positions, and the
    scores. The blocks run in one workspace allocated for the first,
    widest layer."""
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
    check_image_size(seq.num_image_tokens, cfg.hidden_size)
    check_elements(f"a forward of {len(seq)} tokens", forward_elements(cfg, len(seq)))

    x = _embed(w, seq)  # first: a wrong embedding width allocates no workspace
    workspace = _workspace(cfg, len(seq))
    positions = np.arange(len(seq), dtype=np.int64)
    n_img = seq.num_image_tokens
    num_instruction = seq.instruction_ids.size
    boundaries = set(schedule.boundary_layers)
    trace = ForwardTrace()
    stage = 0
    for layer_no, lw in enumerate(w.layers, start=1):
        if layer_no not in boundaries:
            _layer_forward(lw, cfg, x, positions, workspace)
            continue
        scores = _layer_forward(lw, cfg, x, positions, workspace,
                                rank=(n_img + num_instruction - 1, n_img))
        if observe is not None:
            observe(layer_no, x, positions, scores)
        kept = decide(ranker(scores, stage), schedule, stage)
        trace.kept_masks.append((layer_no, positions[kept]))
        rows = np.concatenate([kept, np.arange(n_img, len(positions))])
        x = x[rows]
        positions = positions[rows]
        n_img = kept.size
        stage += 1
    del workspace  # freed before the logits
    trace.hidden.append(x)
    trace.logits = x @ w.head
    trace.positions = positions.copy()
    return trace


# --- marker model ----------------------------------------------------------

MARKER_AMPLITUDE = 1.0
MARKER_GAIN = 2.5


def build_marker_model(cfg: ModelConfig, marker_subspace_dims, margin_onset_layer: int = 1) -> DecoderWeights:
    """Constructed weights whose head-0 similarity separates image tokens
    carrying the marker subspace from all others by a large margin.

    The residual stream is left untouched (w_v and w_down are zero), so the
    similarity at every boundary is computed on the raw embeddings. Layers
    below ``margin_onset_layer`` (1-based) get zero q/k weights: their
    ranking scores carry no signal, which models rankings that only become
    informative in deeper layers.
    """
    dims = sorted(set(int(i) for i in np.atleast_1d(np.asarray(marker_subspace_dims, dtype=np.int64))))
    if not dims:
        raise ConfigError("marker subspace must contain at least one dimension")
    if dims[0] < 0 or dims[-1] >= cfg.hidden_size:
        raise ConfigError(f"marker dims {dims} outside hidden size {cfg.hidden_size}")
    # the flag: the highest dimension outside the marker subspace
    flag_dim = max(set(range(cfg.hidden_size)).difference(dims), default=None)
    if flag_dim is None:
        raise ConfigError(f"marker dims {dims} leave no hidden dimension for the flag")
    if not 1 <= margin_onset_layer <= cfg.num_layers:
        raise ConfigError(f"margin onset layer {margin_onset_layer} outside [1, {cfg.num_layers}]")

    d, m, v = cfg.hidden_size, cfg.ffn_intermediate, cfg.vocab_size
    # the signal lives in rotary pair head_dim - 2 of head 0, the slowest
    # pair, which turns by theta^(-(head_dim - 2) / head_dim) rad per position
    # (3.2e-4 at the toy config); a marked key delta positions before the
    # query scores with cos(delta * that angle), which stays positive only
    # for delta < (pi / 2) / angle, about 4967 positions at the toy config
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
