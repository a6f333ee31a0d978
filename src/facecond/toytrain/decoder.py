"""Toy autoregressive decoder.

One embedding table plus one affine softmax readout. The decoder input
is laid out as [visual tokens][instruction embeddings][response
embeddings]; the logits for response position i come from mean-pooling
the prefix that ends just before that position. The mean pool is the
parameter-free stand-in for sequence mixing, which keeps the likelihood
autoregressive while the conditioning modules stay the subject under
test. The loss scores the response tokens of the assembled sequence, so
``sequence_assemble`` is the one place that checks token ids; it also
builds the two index arrays the loss and its backward use, the token ids
and the flat positions of the targets in the (R, vocab) softmax rows.
At batch size 1 numpy's per-call dispatch sets the time: the softmax
runs in place on the logits, 2-D products go through ``np.dot``, targets
are picked by flat position, and the loss checks its picked
probabilities before ``np.log`` rather than entering ``np.errstate``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..registry import SpecParams, init_arrays, shaped

DEFAULT_MAX_CONTEXT = 2048


@dataclass
class ToyDecoderParams(SpecParams):
    """embedding (vocab, d); readout (vocab, d) affine with bias."""

    embedding: np.ndarray
    readout_w: np.ndarray
    readout_b: np.ndarray

    SPEC = (
        ("embedding.weight", ("vocab", "d")),
        ("readout.weight", ("vocab", "d")),
        ("readout.bias", ("vocab",)),
    )

    @property
    def vocab(self) -> int:
        return self.embedding.shape[0]

    @property
    def d(self) -> int:
        return self.embedding.shape[1]


@dataclass
class DecoderSequence:
    """Assembled decoder input.

    rows is the (L, d) stack; the first n_visual rows are the flattened
    enriched visual tokens, followed by instruction and response
    embeddings. token_ids holds the instruction ids then the response
    ids; target_index[r] is r * vocab + response_ids[r], the flat
    position of target r in the (R, vocab) softmax rows.
    """

    rows: np.ndarray
    n_visual: int
    instruction_ids: tuple[int, ...]
    response_ids: tuple[int, ...]
    visual_shape: tuple[int, int, int]
    token_ids: np.ndarray
    target_index: np.ndarray

    @property
    def length(self) -> int:
        return self.rows.shape[0]


@dataclass
class DecoderCache:
    sequence: DecoderSequence
    pooled: np.ndarray  # (R, d) mean-pooled prefixes
    probs: np.ndarray  # (R, vocab) softmax rows
    params: ToyDecoderParams


def init_decoder(vocab: int, d: int, seed: int = 0) -> ToyDecoderParams:
    if vocab < 2:
        raise ValueError("vocabulary needs at least 2 tokens")
    return ToyDecoderParams(*init_arrays(ToyDecoderParams.SPEC, {"vocab": vocab, "d": d}, seed))


def _check_ids(ids: Sequence[int], vocab: int, what: str) -> tuple[int, ...]:
    """`ids` as Python ints, each in [0, vocab)."""
    ids = tuple([i if type(i) is int else _token_id(i, what) for i in ids])
    if ids and (min(ids) < 0 or max(ids) >= vocab):
        raise ValueError(f"{what} token id out of range for vocab {vocab}")
    return ids


def _token_id(value, what: str) -> int:
    """A token id that is not a Python int: a numpy integer (or a bool,
    which Python counts as one) as an int; anything else fails."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} token id {value!r} is not an integer") from None


def sequence_assemble(
    visual: np.ndarray,
    instruction_ids: Sequence[int],
    response_ids: Sequence[int],
    params: ToyDecoderParams,
    max_context: int = DEFAULT_MAX_CONTEXT,
) -> DecoderSequence:
    """Lay out [visual tokens][instruction][response] as embedding rows.

    The visual block has length exactly T*N; landmark tokens never enter
    the sequence.
    """
    visual = shaped(np.asarray(visual, dtype=np.float64), ("T", "N", params.d), {}, "visual")
    instruction_ids = _check_ids(instruction_ids, params.vocab, "instruction")
    response_ids = _check_ids(response_ids, params.vocab, "response")
    T, N, d = visual.shape
    total = T * N + len(instruction_ids) + len(response_ids)
    if total > max_context:
        raise ValueError(f"sequence length {total} exceeds context window {max_context}")
    token_ids = np.array(instruction_ids + response_ids, dtype=np.intp)
    vocab = params.vocab
    target_index = np.array(
        [r * vocab + t for r, t in enumerate(response_ids)], dtype=np.intp
    )
    rows = np.concatenate([visual.reshape(T * N, d), params.embedding[token_ids]])
    return DecoderSequence(
        rows, T * N, instruction_ids, response_ids, (T, N, d), token_ids, target_index
    )


def autoregressive_loss(
    sequence: DecoderSequence, params: ToyDecoderParams
) -> tuple[float, DecoderCache]:
    """Mean negative log-likelihood of the sequence's response tokens, and
    the cache ``decoder_backward`` and ``response_predictions`` read; a
    caller that wants only the loss takes ``[0]``. ``params`` are the
    ones that assembled ``sequence``, whose target positions assume their
    vocabulary.

    Position i is predicted from the mean of all rows before it (visual
    block, instruction, and earlier response tokens), rounded as
    ``rows[:span].mean(axis=0)``: their sum, then divided by their count.
    """
    targets = sequence.response_ids
    if not targets:
        raise ValueError("response is empty; nothing to score")
    n_prefix = sequence.n_visual + len(sequence.instruction_ids)
    R = len(targets)
    pooled = np.empty((R, params.d))
    # the ufunc reductions here and below skip the Python wrappers of
    # .mean() and .sum(), which count at the toy shape
    for i in range(R):
        np.add.reduce(sequence.rows[: n_prefix + i], axis=0, out=pooled[i])
        pooled[i] /= n_prefix + i
    probs = np.dot(pooled, params.readout_w.T)
    probs += params.readout_b
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    picked = probs.reshape(-1)[sequence.target_index]
    # each picked probability is in [0, 1] or NaN, so the loss is finite
    # unless one is 0 or NaN; np.minimum propagates a NaN
    if not np.minimum.reduce(picked) > 0.0:
        raise FloatingPointError("non-finite loss")
    loss = float(-(np.add.reduce(np.log(picked)) / R))
    return loss, DecoderCache(sequence, pooled, probs, params)


def response_predictions(cache: DecoderCache) -> np.ndarray:
    """Argmax token per response position, from a loss forward cache."""
    return cache.probs.argmax(axis=1)


def decoder_backward(cache: DecoderCache, out: ToyDecoderParams) -> np.ndarray:
    """Gradients of the mean NLL: writes the decoder parameter gradients
    into ``out``, shaped like the parameters, and returns the (T, N, d)
    visual block's."""
    if cache is None:
        raise ValueError("missing forward cache")
    params = cache.params
    seq = cache.sequence
    R = len(seq.response_ids)
    n_prefix = seq.n_visual + len(seq.instruction_ids)

    d_logits = cache.probs.copy()
    # one target per row, so no flat position repeats
    d_logits.reshape(-1)[seq.target_index] -= 1.0
    d_logits /= R

    np.dot(d_logits.T, cache.pooled, out=out.readout_w)
    np.add.reduce(d_logits, axis=0, out=out.readout_b)
    d_pooled = np.dot(d_logits, params.readout_w)  # (R, d)

    d_rows = np.zeros(seq.rows.shape)
    for i in range(R):
        span = n_prefix + i
        d_rows[:span] += d_pooled[i] / span

    T, N, d = seq.visual_shape
    d_visual = d_rows[: seq.n_visual].reshape(T, N, d)

    out.embedding.fill(0.0)
    np.add.at(out.embedding, seq.token_ids, d_rows[seq.n_visual :])
    return d_visual
