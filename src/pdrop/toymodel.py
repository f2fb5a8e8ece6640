"""A small causal decoder instrumented for staged image-token dropping.

Pre-norm residual blocks with RMS normalization, rotary positions, and a
gated three-linear FFN. At each stage boundary the forward scores the
surviving image keys against the last instruction token's query once,
hands the scores to a ranker, then physically removes the dropped image
rows; kept tokens keep their original position ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import index

import numpy as np

from . import layout
from .errors import ConfigError
from .layout import MIN_LAYER_ELEMENTS, MultimodalSequence, check_elements, check_image_size
from .numkernel import (MAX_COUNT, RngState, gaussian_init, rmsnorm_rows, rope_rotate_rows, rope_table,
                        softmax_rows)
from .pruner import StageSchedule, decide, identity_ranker

INIT_STDDEV = 0.02
# query rows per attention block: on 2 vCPUs with one BLAS thread, 32 is the
# fastest on both benchmark prefills (median op_ms of 3 runs at 16, 32 and 64
# rows: 201, 187 and 214 ms at toy V0=1152, 833, 810 and 819 ms at mid V0=576)
ATTENTION_BLOCK_ROWS = 32
# FFN rows whose gate and up buffers the workspace always holds; a wider
# layer runs its FFN in the fewest balanced row chunks that fit the arena,
# each of at least FFN_CHUNK_ROWS / 2 rows. At one thread, OpenBLAS 0.3.31
# rounds a product of at most 90 rows at the toy FFN shape (64 x 172)
# differently from the same rows of the whole-matrix product, and one of 91
# or more rows alike, so chunks this tall leave the FFN's outputs
# bit-identical to the unchunked FFN's there
FFN_CHUNK_ROWS = 256


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
            raise ConfigError(f"hidden_size {self.hidden_size} != heads {self.num_heads} "
                              f"x head_dim {self.head_dim}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary positions, got {self.head_dim}")
        if min(self.num_heads, self.ffn_intermediate, self.vocab_size) < 1:
            raise ConfigError("heads, ffn_intermediate and vocab_size must be positive")
        # NaN fails both comparisons
        if not (0 < self.rope_theta < np.inf and 0 < self.rmsnorm_eps < np.inf):
            raise ConfigError("rope_theta and rmsnorm_eps must be finite and positive")
        # the elements of init_model's weights, each layer charged at least
        # MIN_LAYER_ELEMENTS (exact for layers that hold that many); an upper
        # bound for build_marker_model's, which hold 2d^2 + 2d plus one zero
        # buffer of max(d^2, dm, d x vocab) at any depth
        d, m = self.hidden_size, self.ffn_intermediate
        layer = max(4 * d * d + 3 * d * m + 2 * d, MIN_LAYER_ELEMENTS)
        check_elements("model weights", self.num_layers * layer + 2 * self.vocab_size * d)


# toy default: small enough for second-scale test runs
TOY_CONFIG = ModelConfig(
    num_layers=8, hidden_size=64, num_heads=4, head_dim=16,
    ffn_intermediate=172, vocab_size=256,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ForwardTrace:
    """What one forward returns. ``hidden`` holds one array, the final
    layer's hidden states of the surviving tokens; earlier layers' states
    are not kept."""

    hidden: list[np.ndarray]
    logits: np.ndarray
    kept_masks: list[tuple[int, np.ndarray]]
    positions: np.ndarray  # original positions of surviving tokens


def init_model(cfg: ModelConfig, seed: int) -> DecoderWeights:
    if abs(seed) > MAX_COUNT:  # RngState would fold it onto a seed within the bound
        raise ConfigError(f"seed: {seed} is past the bound of {MAX_COUNT}")
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
        raise ConfigError(f"image embeddings have dim {image.shape[1]}, model expects {d}")
    text_ids = seq.text_ids
    if text_ids.min() < 0 or text_ids.max() >= w.config.vocab_size:
        raise ConfigError("text token id outside the vocabulary")
    return np.concatenate([image, w.embedding[text_ids]])


# the diagonal block's mask: rows strictly ascend by position id, so a
# query row never sees a key row after it
_ABOVE_DIAGONAL = np.triu(np.ones((ATTENTION_BLOCK_ROWS, ATTENTION_BLOCK_ROWS), dtype=bool), 1)


def _causal_attention(qh, kt, vh, out, scratch, rank=None):
    """Causal attention of every head, ATTENTION_BLOCK_ROWS query rows at a
    time, into ``out`` (heads, n, head_dim). Takes the post-rotary queries
    ``qh`` (heads, n, head_dim), which it scales in place by
    1/sqrt(head_dim), the keys ``kt`` (heads, head_dim, n) and the values
    ``vh`` (heads, n, head_dim); ``scratch`` is a flat buffer of at least
    heads * ATTENTION_BLOCK_ROWS * (n + 1) floats for the row sums and the
    score blocks. Every score is at most the largest scaled query norm
    times the largest key norm over all heads in magnitude
    (Cauchy–Schwarz); that bound, taken once from squared norms written
    into the front of ``scratch``, goes to ``softmax_rows``, which skips
    the row maximum when it is at most EXP_SAFE. Rows strictly ascend by
    position id (kept rows stay in order, image rows precede text rows),
    so query rows [r0, r1) see only keys [0, r1) and only the diagonal
    block needs a mask, its strict upper triangle. The weights stay
    unnormalised through the value product, and its rows x head_dim
    result, not the rows x r1 block, is divided by the row sums. With
    ``rank=(row, n_img)`` it returns the ranking scores of the first
    ``n_img`` keys: the head mean of query ``row``'s scaled logits, read
    from its block before the softmax overwrites it (no image key is
    masked for that row, as n_img <= row)."""
    nh, n, hd = qh.shape
    qh *= 1.0 / np.sqrt(hd)
    norms = scratch[:nh * n].reshape(nh, n)
    q_top = np.maximum.reduce(np.einsum("hnd,hnd->hn", qh, qh, out=norms), axis=None)
    k_top = np.maximum.reduce(np.einsum("hdn,hdn->hn", kt, kt, out=norms), axis=None)
    bound = np.sqrt(q_top * k_top)
    scores = None
    for r0 in range(0, n, ATTENTION_BLOCK_ROWS):
        r1 = min(r0 + ATTENTION_BLOCK_ROWS, n)
        rows = r1 - r0
        sums = scratch[:nh * rows].reshape(nh, rows, 1)
        block = scratch[nh * rows:nh * rows * (r1 + 1)].reshape(nh, rows, r1)
        np.matmul(qh[:, r0:r1], kt[:, :, :r1], out=block)
        np.copyto(block[:, :, r0:], -np.inf, where=_ABOVE_DIAGONAL[:rows, :rows])
        if rank is not None and r0 <= rank[0] < r1:
            scores = block[:, rank[0] - r0, :rank[1]].mean(axis=0)
        block_out = out[:, r0:r1]
        np.matmul(softmax_rows(block, out=block, sums=sums, bound=bound), vh[:, :r1], out=block_out)
        block_out /= sums
    return scores


def _workspace_elements(cfg: ModelConfig, n: int) -> int:
    """The elements of ``_workspace(cfg, n)``."""
    d, m, hd = cfg.hidden_size, cfg.ffn_intermediate, cfg.head_dim
    shared = max(n * (hd + d), cfg.num_heads * ATTENTION_BLOCK_ROWS * (n + 1))
    return n * d + max(3 * n * d + shared, 2 * min(n, FFN_CHUNK_ROWS) * m)


def forward_elements(cfg: ModelConfig, n: int, plans: int = 1) -> int:
    """The elements a forward of ``plans`` plans as one tree over ``n``
    tokens holds at most: a residual stream per plan, since plans that
    keep different sets hold their rows apart, plus the larger of its
    workspace and one plan's logits, which are built once the workspace
    is freed."""
    return plans * n * cfg.hidden_size + max(_workspace_elements(cfg, n), n * cfg.vocab_size)


def _workspace(cfg: ModelConfig, n: int) -> np.ndarray:
    """The block buffer of a forward whose widest layer has ``n`` rows: one
    flat array, an n x d rows buffer followed by an arena. During attention
    the arena holds an n x d projection scratch (which then holds the
    values and the output projection), the head-major queries and keys,
    and a shared region: the rotary cos/sin table and the rotated rows
    while q and k are rotated (the rotation's scratch is the projection's
    own even half), the row sums and the score block after that. The FFN's
    gate and up buffers reuse the arena after attention, r x m each for a
    chunk of r rows (``_ffn_chunks``): the arena holds them for at least
    min(n, FFN_CHUNK_ROWS) rows, so the attention, not the FFN, sets its
    size once n is past FFN_CHUNK_ROWS. Every layer of the forward works in
    views of it sized for its own, never larger, row count; no view holds
    data from one layer to the next, so the arena may start earlier as the
    row count shrinks."""
    return np.empty(_workspace_elements(cfg, n))


def _ffn_chunks(n: int, rows: int):
    """The fewest balanced row ranges [a, b) over ``n`` rows that each hold
    at most ``rows`` rows; their sizes differ by at most one."""
    chunks = -(-n // rows)
    bounds = [i * n // chunks for i in range(chunks + 1)]
    return list(zip(bounds, bounds[1:]))


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
    scores of the first ``n_img`` keys against the query of ``row``, which
    the attention reads from its own scores (``_causal_attention``)."""
    n, d, m = x.shape[0], cfg.hidden_size, cfg.ffn_intermediate
    nh, hd = cfg.num_heads, cfg.head_dim
    h = workspace[:n * d].reshape(n, d)
    arena = workspace[n * d:]
    t = arena[:n * d].reshape(n, d)
    qh = arena[n * d:2 * n * d].reshape(nh, n, hd)
    kt = arena[2 * n * d:3 * n * d].reshape(nh, hd, n)
    shared = arena[3 * n * d:]
    rmsnorm_rows(x, lw.attn_gain, cfg.rmsnorm_eps, out=h)
    # one table for both rotations: each row's position broadcasts over heads
    table = rope_table(positions[:, None], hd, cfg.rope_theta,
                       out=shared[:n * hd].reshape(2, n, 1, hd // 2))
    rotated = shared[n * hd:n * (hd + d)].reshape(n, nh, hd)
    projected = t.reshape(n, nh, hd)
    for w_proj, head_major in ((lw.w_q, qh.transpose(1, 0, 2)), (lw.w_k, kt.transpose(2, 0, 1))):
        np.matmul(h, w_proj, out=t)
        # rotating into rows and copying them into q or kᵀ at once beats
        # writing each product through the head-major view; the rotation's
        # last product overwrites the even half it has read for the last time
        rope_rotate_rows(projected, table, out=rotated, scratch=projected[..., 0::2])
        np.copyto(head_major, rotated)
    del table, rotated  # dead: the score block overwrites them
    values = np.matmul(h, lw.w_v, out=t).reshape(n, nh, hd).transpose(1, 0, 2)
    scores = _causal_attention(qh, kt, values, h.reshape(n, nh, hd).transpose(1, 0, 2), shared, rank)
    x += np.matmul(h, lw.w_o, out=t)
    rmsnorm_rows(x, lw.ffn_gain, cfg.rmsnorm_eps, out=h)
    for a, b in _ffn_chunks(n, arena.size // (2 * m)):
        r = b - a
        gate = arena[:r * m].reshape(r, m)
        up = arena[r * m:2 * r * m].reshape(r, m)
        # SiLU(gate) * up, with the up buffer holding SiLU's denominator first
        _silu(np.matmul(h[a:b], lw.w_gate, out=gate), up)
        gate *= np.matmul(h[a:b], lw.w_up, out=up)
        x[a:b] += np.matmul(gate, lw.w_down, out=h[a:b])
    return scores


def forward_plans(w: DecoderWeights, seq: MultimodalSequence, plans, observe=None):
    """The forward of one or several plans over one sequence, a plan being
    a ``(schedule, ranker)`` pair. Yields one ``ForwardTrace`` per plan, in
    plan order, bit-identical to that plan's own ``forward_pruned``. Plans
    whose rows are still the same hold one hidden-row array, and each
    layer runs once per array. At a boundary each plan that drops there
    ranks its own copy of the scores, plans that keep the same set share
    one gathered copy of the rows, and a plan with no boundary there keeps
    its array. ``observe`` is called once per array at each boundary where
    a plan holding it drops, before any of them ranks. Every plan and the
    forward's size are checked when the first trace is asked for, before
    any layer runs. The plans run as one tree, or, where their residual
    streams together would pass ``MAX_ELEMENTS``, as consecutive trees of
    as many plans as it admits, so a list of plans is refused only where
    one plan's forward is. One workspace serves every array of a tree and
    is freed before any logits are built; each trace's logits are built
    when it is asked for, so a caller that drops each trace before asking
    for the next holds one plan's logits at a time."""
    cfg = w.config
    for schedule, _ in plans:
        try:  # a float count would slice the rows or pass unnoticed
            for count in chain(schedule.stage_layer_counts, schedule.stage_token_counts):
                index(count)
        except TypeError as exc:
            raise ConfigError(f"schedule counts must be integers: {exc}") from exc
        if sum(schedule.stage_layer_counts) != cfg.num_layers:
            raise ConfigError(
                f"schedule built for {sum(schedule.stage_layer_counts)} layers, model has {cfg.num_layers}"
            )
        if schedule.stage_token_counts[0] != seq.num_image_tokens:
            raise ConfigError(
                f"schedule expects {schedule.stage_token_counts[0]} image tokens, "
                f"sequence has {seq.num_image_tokens}"
            )
    if not plans:
        return
    check_image_size(seq.num_image_tokens, cfg.hidden_size)
    n = len(seq)
    per_tree = max((k for k in range(2, len(plans) + 1)
                    if forward_elements(cfg, n, k) <= layout.MAX_ELEMENTS), default=1)
    check_elements(f"a forward of {n} tokens", forward_elements(cfg, n, per_tree))
    for start in range(0, len(plans), per_tree):
        yield from _forward_tree(w, seq, plans[start:start + per_tree], observe)


def _forward_tree(w: DecoderWeights, seq: MultimodalSequence, plans, observe):
    """``forward_plans`` of checked ``plans`` that fit one tree."""
    cfg = w.config
    # each group: hidden rows, their original positions, and the plans
    # (ascending) that hold them; no other name holds the embedding, so a
    # drop at the first boundary frees it
    groups = [(_embed(w, seq), np.arange(len(seq), dtype=np.int64), list(range(len(plans))))]
    workspace = _workspace(cfg, len(seq))  # after the embedding: a wrong width allocates none
    n_text = len(seq) - seq.num_image_tokens
    num_instruction = seq.instruction_ids.size
    boundaries = [set(schedule.boundary_layers) for schedule, _ in plans]
    masks = [[] for _ in plans]  # each plan's kept masks
    for layer_no, lw in enumerate(w.layers, start=1):
        todo, groups = groups, []
        while todo:
            # popped, so that no list holds the rows a drop leaves behind
            x, positions, members = todo.pop(0)
            n_img = positions.size - n_text
            dropping = [p for p in members if layer_no in boundaries[p]]
            staying = [p for p in members if layer_no not in boundaries[p]]
            rank = (n_img + num_instruction - 1, n_img) if dropping else None
            scores = _layer_forward(lw, cfg, x, positions, workspace, rank=rank)
            if staying:
                groups.append((x, positions, staying))
            if not dropping:
                continue
            if observe is not None:
                observe(layer_no, x, positions, scores)
            gathered = []  # (kept indices, the plans keeping them)
            for p in dropping:
                schedule, ranker = plans[p]
                stage = len(masks[p])
                kept = decide(scores, schedule, stage, ranker)
                masks[p].append((layer_no, positions[kept]))
                sharing = next((s for k, s in gathered if np.array_equal(k, kept)), None)
                if sharing is None:
                    sharing = []
                    gathered.append((kept, sharing))
                sharing.append(p)
            rows = [np.concatenate([kept, np.arange(n_img, positions.size)]) for kept, _ in gathered]
            kept_x = [x[r] for r in rows]
            del x  # the pre-drop rows are freed here, unless a plan stays on them
            groups.extend(zip(kept_x, [positions[r] for r in rows], [sharing for _, sharing in gathered]))
    del workspace  # freed before the logits
    for p, kept_masks in enumerate(masks):
        x, positions, members = next(group for group in groups if p in group[2])
        # a plan whose final rows a later plan shares gets a copy of its own
        hidden = x if p == members[-1] else x.copy()
        yield ForwardTrace([hidden], hidden @ w.head, kept_masks, positions.copy())


def forward_pruned(
    w: DecoderWeights,
    seq: MultimodalSequence,
    schedule: StageSchedule,
    ranker=identity_ranker,
    observe=None,
) -> ForwardTrace:
    """The forward of one plan (``forward_plans``): image tokens dropped at
    the schedule's boundaries are physically removed for all later layers;
    ``keep_all_schedule`` gives the unpruned forward. The surviving image
    tokens always occupy the first rows and the instruction tokens follow
    them; at each boundary the block's attention scores them once (the
    head mean of the last instruction token's scaled logits) and the kept
    set is the highest of ``ranker(scores, stage)``. Before that decision, a given
    ``observe(layer, x, positions, scores)`` sees the boundary: its 1-based
    layer, the live hidden rows ``x`` (not a copy: a write into them
    carries into every later layer), their original positions, and the
    scores. The blocks run in one workspace allocated for the first,
    widest layer."""
    return next(forward_plans(w, seq, [(schedule, ranker)], observe))


# --- marker model ----------------------------------------------------------

MARKER_AMPLITUDE = 1.0
MARKER_GAIN = 2.5


def build_marker_model(cfg: ModelConfig, marker_subspace_dims, margin_onset_layer: int = 1) -> DecoderWeights:
    """Constructed weights whose head-0 similarity separates image tokens
    carrying the marker subspace from all others by a large margin.

    The residual stream is left untouched (w_v and w_down are zero), so the
    similarity at every boundary is computed on the raw embeddings. Layers
    below ``margin_onset_layer`` (1-based) are one silent layer, with zero
    q/k weights whose ranking scores carry no signal (rankings that only
    become informative in deeper layers); the rest are one signalling layer.
    The two share their gain and their zero blocks, which, like the head,
    are views of one flat zero buffer; the embedding is one row (the flag)
    broadcast over the vocabulary, since every token id embeds to it. Every
    array is read-only, so an in-place write raises instead of changing
    every layer.
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
    w_q, w_k, row, gain = np.zeros((d, d)), np.zeros((d, d)), np.zeros(d), np.ones(d)
    w_q[flag_dim, signal_col] = MARKER_GAIN
    w_k[dims, signal_col] = MARKER_GAIN
    row[flag_dim] = MARKER_AMPLITUDE  # the embedding of every token id
    # every all-zero block is a C-ordered view of one flat zero buffer, so a
    # product with it still runs through BLAS; a view taken once the buffer
    # is read-only is read-only too
    zeros = np.zeros(max(d * d, d * m, d * v))
    for block in (zeros, w_q, w_k, row, gain):
        block.flags.writeable = False
    zeros_dd, zeros_dm, zeros_md, head = (zeros[:r * c].reshape(r, c)
                                          for r, c in ((d, d), (d, m), (m, d), (d, v)))
    embedding = np.broadcast_to(row, (v, d))  # row stride 0
    silent = LayerWeights(zeros_dd, zeros_dd, zeros_dd, zeros_dd, zeros_dm, zeros_dm, zeros_md, gain, gain)
    signalling = replace(silent, w_q=w_q, w_k=w_k)
    layers = [silent] * (margin_onset_layer - 1) + [signalling] * (cfg.num_layers - margin_onset_layer + 1)
    return DecoderWeights(cfg, layers, embedding, head)
