"""Query-tiled attention: one ``attend`` path for decode, verify and prefill.

``AttentionLayer.attend`` walks the queries in tiles of ``_PREFILL_TILE``
rows and skips the keys a tile's causal mask hides entirely.  A call of at
most one tile must equal the untiled formula bit for bit; a longer call may
differ only in the last float bits (each softmax row sums over fewer
trailing zeros) and must never change a generated token.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.datasets.base import DatasetSpec
from repro.datasets.generator import SampleGenerator
from repro.model.attention import _PREFILL_TILE, AttentionLayer, softmax
from repro.model.config import ModelConfig, get_sim_config
from repro.model.transformer import Transformer
from repro.model.weights import build_random_weights, build_retrieval_weights
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

T = _PREFILL_TILE
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def untiled_attention(layer, q, keys, values, positions):
    """Reference: the whole ``(n_heads, n_q, n_kv)`` logits tensor, masked by
    ``np.where`` and normalised by :func:`softmax`."""
    k_heads = np.ascontiguousarray(layer._expand_kv_heads(keys).transpose(1, 2, 0))
    v_heads = np.ascontiguousarray(layer._expand_kv_heads(values).transpose(1, 0, 2))
    q_heads = np.ascontiguousarray(q.transpose(1, 0, 2))
    logits = (q_heads @ k_heads) * layer._scale
    hidden = np.arange(keys.shape[0])[None, :] > np.asarray(positions)[:, None]
    logits = np.where(hidden[None], np.float32(-1e9), logits)
    context = softmax(logits) @ v_heads
    flat = context.transpose(1, 0, 2).reshape(q.shape[0], -1)
    return (flat @ layer.weights.wo.reshape(flat.shape[1], -1)).astype(np.float32)


def _layer(n_heads: int, n_kv_heads: int) -> AttentionLayer:
    config = ModelConfig(
        name="tiling",
        vocab_size=50,
        d_model=32,
        n_layers=1,
        n_heads=n_heads,
        n_kv_heads=n_kv_heads,
        d_ff=64,
        max_seq_len=4 * T,
        positional="none",
        use_rmsnorm=True,
    )
    weights = build_random_weights(config, seed=3, scale=0.2)
    return AttentionLayer(weights.blocks[0].attention, config)


def _mirrors(layer, keys, values):
    """Head-major K/V views into over-allocated buffers, like the paged pool's."""
    n_kv = keys.shape[0]
    k_buffer = np.zeros(
        (layer.config.n_heads, layer.config.head_dim, n_kv + 9), dtype=np.float32
    )
    v_buffer = np.zeros(
        (layer.config.n_heads, n_kv + 9, layer.config.head_dim), dtype=np.float32
    )
    k_buffer[:, :, :n_kv] = keys.transpose(1, 2, 0)
    v_buffer[:, :n_kv] = values.transpose(1, 0, 2)
    return k_buffer[:, :, :n_kv], v_buffer[:, :n_kv]


def _positions(layout: str, n_q: int, n_kv: int, rng) -> np.ndarray:
    if layout == "tail":  # a prompt or chunked-prefill chunk after a prefix
        return np.arange(n_kv - n_q, n_kv)
    # Arbitrary sorted positions whose last query sits before the cache end.
    return np.sort(rng.choice(n_kv - 3, size=n_q, replace=False))


class TestTiledAttendMatchesUntiled:
    @pytest.mark.parametrize("n_q", [1, T - 1, T, T + 1, 2 * T + 7])
    @pytest.mark.parametrize("layout", ["tail", "mid_history"])
    @pytest.mark.parametrize(
        "heads", [(4, 4, False), (4, 4, True), (4, 2, False)], ids=["mha", "mirrors", "gqa"]
    )
    def test_against_reference(self, rng, n_q, layout, heads):
        n_heads, n_kv_heads, use_mirrors = heads
        layer = _layer(n_heads, n_kv_heads)
        head_dim = layer.config.head_dim
        n_kv = n_q + 11
        q = rng.standard_normal((n_q, n_heads, head_dim), dtype=np.float32)
        keys = rng.standard_normal((n_kv, n_kv_heads, head_dim), dtype=np.float32)
        values = rng.standard_normal((n_kv, n_kv_heads, head_dim), dtype=np.float32)
        positions = _positions(layout, n_q, n_kv, rng)
        if use_mirrors:
            out = layer.attend(
                q, None, None, positions, kv_mirrors=_mirrors(layer, keys, values)
            )
        else:
            out = layer.attend(q, keys, values, positions)
        reference = untiled_attention(layer, q, keys, values, positions)
        assert out.dtype == np.float32
        if n_q <= T:
            np.testing.assert_array_equal(out, reference)
        else:
            np.testing.assert_allclose(out, reference, rtol=1e-5, atol=1e-6)

    def test_positions_past_the_cache_end_see_every_key(self, rng):
        layer = _layer(4, 4)
        q = rng.standard_normal((1, 4, layer.config.head_dim), dtype=np.float32)
        keys = rng.standard_normal((7, 4, layer.config.head_dim), dtype=np.float32)
        values = rng.standard_normal((7, 4, layer.config.head_dim), dtype=np.float32)
        out = layer.attend(q, keys, values, np.asarray([9]))
        np.testing.assert_array_equal(
            out, untiled_attention(layer, q, keys, values, np.asarray([9]))
        )


LONG_SPEC = DatasetSpec(
    name="tiling-qa",
    display_name="TilingQA",
    task="Single-Document QA",
    metric="f1",
    n_context_words=2 * T + 60,
    answer_length=(5, 8),
    n_related_facts=1,
    n_distractor_facts=4,
    n_trap_chunks=1,
)


@pytest.fixture(scope="module")
def long_sample(vocab):
    return SampleGenerator(vocab, LONG_SPEC, seed=5).generate(0)


class TestLongPromptTokens:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_paged_dense_and_chunked_prefill_agree(
        self, vocab, tokenizer, retrieval_model, long_sample, backend
    ):
        """A prompt of more than two tiles yields the same tokens from the
        paged and dense caches, prefilled in one shot or in chunks whose
        budget ends mid-tile."""
        outputs = {}
        for kv_cache, budget in itertools.product(
            ("paged", "dense"), (None, T + T // 2 + 3)
        ):
            engine = InferenceEngine(
                retrieval_model,
                tokenizer,
                CocktailConfig(chunk_size=16),
                lexicon=vocab.lexicon,
                kv_cache=kv_cache,
                max_prefill_tokens_per_step=budget,
            )
            result = engine.run(
                GenerationRequest(
                    long_sample.context_words,
                    long_sample.query_words,
                    max_new_tokens=6,
                    backend=backend,
                )
            )
            assert result.n_prompt_tokens > 2 * T
            if budget is not None:
                assert result.stats.n_prefill_chunks > 1
            outputs[kv_cache, budget] = (result.token_ids, result.stopped_by)
        first = next(iter(outputs.values()))
        assert all(output == first for output in outputs.values()), outputs


def test_long_prefill_never_builds_the_full_score_matrix(tokenizer):
    """A 3k-token prefill peaks below the size of one ``(n_heads, n, n)``
    float32 score tensor (137 MiB here; the untiled formula, which also
    copied it to mask it, peaked at ~327 MiB).  Tiled, it peaks at ~65 MiB."""
    n = 3000
    config = get_sim_config("llama2-7b", tokenizer.vocab_size, max_seq_len=n + 8)
    model = Transformer(config, build_retrieval_weights(config))
    prompt = list(np.random.default_rng(0).integers(4, tokenizer.vocab_size, n))
    cache = model.new_cache(n + 8)
    tracemalloc.start()
    try:
        model.prefill(prompt, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"
