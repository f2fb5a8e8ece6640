"""Multimodal sequences in image-first layout.

Layout is LLaVA-style: all image tokens first, then instruction tokens,
then answer tokens, and token i has original position i. Under causal
masking the last instruction token therefore attends to every image
token, which the ranking rule requires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class MultimodalSequence:
    """One prefill sequence: ``image_embeddings`` rows (positions
    ``0..V0-1``), then ``instruction_ids``, then ``answer_ids``. The
    instruction must hold at least one token, whose last one is the
    ranking query, and image embeddings must be finite."""

    image_embeddings: np.ndarray
    instruction_ids: np.ndarray
    answer_ids: np.ndarray

    def __post_init__(self):
        if self.image_embeddings.ndim != 2:
            raise InputError(f"image embeddings must be 2-D rows, got shape {self.image_embeddings.shape}")
        if self.instruction_ids.size == 0:
            raise InputError("instruction must contain at least one token")
        if not np.isfinite(self.image_embeddings).all():
            raise InputError("image embeddings must be finite")

    def __len__(self) -> int:
        return self.num_image_tokens + self.instruction_ids.size + self.answer_ids.size

    @property
    def num_image_tokens(self) -> int:
        return int(self.image_embeddings.shape[0])

    @property
    def text_ids(self) -> np.ndarray:
        return np.concatenate([self.instruction_ids, self.answer_ids])


def build_sequence(
    image_embeddings: np.ndarray,
    instruction_ids,
    answer_ids=(),
) -> MultimodalSequence:
    image_embeddings = np.atleast_2d(np.asarray(image_embeddings, dtype=np.float64))
    if image_embeddings.size == 0:
        image_embeddings = image_embeddings.reshape(0, image_embeddings.shape[-1])
    return MultimodalSequence(
        image_embeddings,
        np.asarray(instruction_ids, dtype=np.int64),
        np.asarray(answer_ids, dtype=np.int64),
    )


def sequence_from_json(obj: dict) -> MultimodalSequence:
    """Fixture format: {"image": [[...d floats...], ...], "instruction": [ids], "answer": [ids]}."""
    try:
        image = np.asarray(obj.get("image", []), dtype=np.float64)
        instruction = obj["instruction"]
        answer = obj.get("answer", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed sequence fixture: {exc}") from exc
    return build_sequence(image, instruction, answer)


def load_sequence(path) -> MultimodalSequence:
    with open(path) as fh:
        return sequence_from_json(json.load(fh))
