"""Reference forward used only by the tests: instead of physically
removing dropped image tokens it keeps the sequence at full length and
masks dropped tokens out of attention as keys. Written directly in numpy,
independent of the library's layer code, so agreement with the pruned
forward is a real two-route check.
"""

import numpy as np


def _rms_rows(x, gain, eps):
    return x * gain / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps)


def _rope_rows(x, positions, theta):
    hd = x.shape[1]
    ang = positions[:, None].astype(float) * theta ** (-2.0 * np.arange(hd // 2) / hd)
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * c - x[:, 1::2] * s
    out[:, 1::2] = x[:, 0::2] * s + x[:, 1::2] * c
    return out


def _softmax_rows(a):
    with np.errstate(invalid="ignore"):  # fully-masked rows subtract inf - inf
        e = np.exp(a - a.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


def masked_pruned_forward(weights, seq, schedule):
    """Full-length forward with key masking at drop boundaries.

    Returns (hidden_rows_by_position, kept_sets) where hidden rows are the
    final-layer states of all tokens (dropped rows are garbage by design)
    and kept_sets lists the surviving image positions per boundary.
    """
    cfg = weights.config
    n = len(seq)
    # segments in image | instruction | answer order; token i sits at position i
    n_img, n_instr = seq.num_image_tokens, seq.instruction_ids.size
    positions = np.arange(n, dtype=np.int64)
    x = np.empty((n, cfg.hidden_size))
    for i in range(n):
        if i < n_img:
            x[i] = seq.image_embeddings[i]
        else:
            x[i] = weights.embedding[seq.text_ids[i - n_img]]

    image_pos = list(range(n_img))
    instr_pos = list(range(n_img, n_img + n_instr))
    q_row = positions.tolist().index(instr_pos[-1])

    masked = np.zeros(n, dtype=bool)
    boundaries = set(schedule.boundary_layers)
    kept_sets = []
    stage = 0
    nh, hd = cfg.num_heads, cfg.head_dim
    for layer_no, lw in enumerate(weights.layers, start=1):
        h = _rms_rows(x, lw.attn_gain, cfg.rmsnorm_eps)
        q = (h @ lw.w_q).reshape(n, nh, hd)
        k = (h @ lw.w_k).reshape(n, nh, hd)
        v = (h @ lw.w_v).reshape(n, nh, hd)
        for hh in range(nh):
            q[:, hh] = _rope_rows(q[:, hh], positions, cfg.rope_theta)
            k[:, hh] = _rope_rows(k[:, hh], positions, cfg.rope_theta)
        allowed = (positions[None, :] <= positions[:, None]) & ~masked[None, :]
        attn = np.empty((n, nh, hd))
        for hh in range(nh):
            scores = (q[:, hh] @ k[:, hh].T) / np.sqrt(hd)
            scores = np.where(allowed, scores, -np.inf)
            attn[:, hh] = _softmax_rows(scores) @ v[:, hh]
        x = x + attn.reshape(n, nh * hd) @ lw.w_o
        hf = _rms_rows(x, lw.ffn_gain, cfg.rmsnorm_eps)
        g = hf @ lw.w_gate
        sig = 0.5 * (1.0 + np.tanh(g / 2.0))  # sigmoid via tanh, on purpose
        x = x + ((g * sig) * (hf @ lw.w_up)) @ lw.w_down
        # masked rows are discarded by definition; zero them so a token whose
        # every causal key is masked cannot poison later layers with NaNs
        # through exp(-inf) * NaN products
        x[masked] = 0.0

        if layer_no in boundaries:
            alive = [i for i in image_pos if not masked[i]]
            per_head = np.array(
                [[q[q_row, hh] @ k[i, hh] for i in alive] for hh in range(nh)]
            ) / np.sqrt(hd)
            scores = per_head.mean(axis=0)
            keep = schedule.stage_token_counts[stage + 1]
            order = np.argsort(-scores, kind="stable")
            kept = sorted(alive[j] for j in order[:keep])
            for i in alive:
                if i not in kept:
                    masked[i] = True
            kept_sets.append(kept)
            stage += 1
    return x, kept_sets
