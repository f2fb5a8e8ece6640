"""Multimodal sequences in image-first layout.

Layout is LLaVA-style: all image tokens first, then instruction tokens,
then answer tokens, and token i has original position i. Under causal
masking the last instruction token therefore attends to every image
token, which the ranking rule requires.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


# image tokens x hidden size past which no sequence is built or run: 2**22
# float64 elements, 32 MiB of image embeddings (the paper's 9-patch count,
# V0=5184, at the toy width of 64 is 331,776); a forward's own buffers are
# a few times its embeddings
MAX_IMAGE_ELEMENTS = 1 << 22
# elements past which no model weights, token ids or forward buffers are
# built: 2**25 float64 elements, 256 MiB. The mid benchmark model's weights
# are about 12.8M elements; a forward at MAX_IMAGE_ELEMENTS with a short
# text holds about 29.4M at the toy width and 25.7M at the mid width, so
# this bound refuses no image the image bound admits there
MAX_ELEMENTS = 1 << 25
# the least a model layer is charged against MAX_ELEMENTS: a layer costs its
# objects and a forward's per-layer calls beyond its elements, so at a tiny
# width the bound admits fewer than 8192 layers; a toy layer holds 49,536
MIN_LAYER_ELEMENTS = 4096
# fixture bytes per image element: a float64 repr takes at most 24, plus a
# separator and json.dump(indent=2)'s newline and indentation, and brackets
FIXTURE_BYTES_PER_ELEMENT = 40


def check_image_size(num_image_tokens: int, hidden_size: int) -> None:
    """Refuse, before anything of that size is allocated, a sequence of
    more than MAX_IMAGE_ELEMENTS image-embedding elements."""
    if num_image_tokens * hidden_size > MAX_IMAGE_ELEMENTS:
        raise ConfigError(
            f"{num_image_tokens} image tokens x hidden size {hidden_size} exceeds "
            f"the bound of {MAX_IMAGE_ELEMENTS} elements"
        )


def check_elements(what: str, elements: int) -> None:
    """Refuse, before it is allocated, ``what`` of more than MAX_ELEMENTS
    elements."""
    if elements > MAX_ELEMENTS:
        raise ConfigError(f"{what}: {elements} elements exceed the bound of {MAX_ELEMENTS}")


@dataclass
class MultimodalSequence:
    """One prefill sequence: ``image_embeddings`` rows (positions
    ``0..V0-1``), then ``instruction_ids``, then ``answer_ids``. The
    instruction must hold at least one token, whose last one is the
    ranking query, and image embeddings must be finite, each row's sum of
    squares too."""

    image_embeddings: np.ndarray
    instruction_ids: np.ndarray
    answer_ids: np.ndarray

    def __post_init__(self):
        if self.image_embeddings.ndim != 2:
            raise ConfigError(f"image embeddings must be 2-D rows, got shape {self.image_embeddings.shape}")
        if self.instruction_ids.ndim != 1 or self.answer_ids.ndim != 1:
            raise ConfigError("instruction and answer ids must be flat lists")
        if self.instruction_ids.size == 0:
            raise ConfigError("instruction must contain at least one token")
        # each row's sum of squares as rmsnorm_rows computes it: not finite
        # where the row holds NaN or inf, or where the sum passes the float64
        # range, which would make the first norm zero the row
        image = self.image_embeddings
        with np.errstate(over="ignore"):
            squares = np.add.reduce(np.multiply(image, image), axis=-1)
        if not np.isfinite(squares).all():
            if not np.isfinite(image).all():
                raise ConfigError("image embeddings must be finite")
            row = int(np.argmin(np.isfinite(squares)))
            raise ConfigError(f"image embedding row {row}: its sum of squares overflows float64")

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
    ids = [np.asarray(instruction_ids), np.asarray(answer_ids)]
    for x in ids:  # the int64 cast would truncate a float, read a bool as 0 or 1, wrap a uint64
        if x.size and (x.dtype == bool or not np.can_cast(x.dtype, np.int64)):
            raise ConfigError(f"instruction and answer ids must be integers, got dtype {x.dtype}")
    return MultimodalSequence(image_embeddings, *(x.astype(np.int64, copy=False) for x in ids))


def sequence_from_json(obj: dict) -> MultimodalSequence:
    """Fixture format: {"image": [[...d floats...], ...], "instruction": [ids], "answer": [ids]}."""
    if not isinstance(obj, dict):
        raise ConfigError(f"sequence fixture must be a JSON object, got {type(obj).__name__}")
    image = obj.get("image", [])
    if isinstance(image, list):  # counted before it becomes an array, rows as wide as the widest
        width = max((len(row) if isinstance(row, list) else 1 for row in image), default=0)
        check_image_size(len(image), width)
    ids = {"instruction": obj.get("instruction"), "answer": obj.get("answer", [])}
    for key, value in ids.items():  # cast below, a float or a bool would be truncated
        if not isinstance(value, list) or any(type(i) is not int for i in value):
            raise ConfigError(f"sequence fixture {key} must be a flat list of integer ids")
    check_elements("sequence fixture text ids", len(ids["instruction"]) + len(ids["answer"]))
    try:
        image = np.asarray(image, dtype=np.float64)
        instruction = np.asarray(ids["instruction"], dtype=np.int64)
        answer = np.asarray(ids["answer"], dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed sequence fixture: {exc}") from exc
    return build_sequence(image, instruction, answer)


def read_json(path, what: str, max_bytes: int):
    """The UTF-8 JSON value in the ``what`` file at ``path``, refused
    unparsed past ``max_bytes`` bytes: a regular file by its size,
    a pipe or a device (size 0) in chunks as it is read, endless or not."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > max_bytes:
            raise ConfigError(f"{what} file {path} holds {size} bytes, past the bound of {max_bytes}")
        data = fh.read(size) if size else bytearray()
        while not size and len(data) <= max_bytes and (chunk := fh.read(1 << 16)):
            data += chunk
        if len(data) > max_bytes:
            raise ConfigError(f"{what} file {path} holds more than the bound of {max_bytes} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    # besides bad syntax: bytes that are not UTF-8, an integer past
    # Python's digit limit, or arrays nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_sequence(path) -> MultimodalSequence:
    """The fixture at ``path``, refused unparsed if its size is past the bound."""
    bound = FIXTURE_BYTES_PER_ELEMENT * MAX_IMAGE_ELEMENTS
    return sequence_from_json(read_json(path, "fixture", bound))
