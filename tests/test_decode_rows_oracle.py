"""The one decode forward against a token-major reference kept here.

:meth:`~repro.model.transformer.Transformer.decode_step_batch` runs its
rows layer by layer: every row passes layer 0, then every row passes
layer 1, and so on.  A speculative verify run is the same call with the
sequence's cache repeated once per row.  :func:`reference_decode` below is
the textbook order instead — one token through every layer before the
next token starts — written out from the model's building blocks.  The
two must agree bit for bit on logits, on every layer's K/V and on the
pool pages each cache holds, for any mix of plain rows and verify runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvpool import BlockPool

BLOCK_SIZE = 8
PROMPT_LENGTHS = (13, 22, 30)
K = 4


def reference_decode(model, token_id: int, cache) -> np.ndarray:
    """One token through the whole layer stack; returns its next-token logits."""
    positions = np.asarray([cache.length])
    hidden = model.embed([token_id], positions)
    for block, layer_cache in zip(model.blocks, cache.layers):
        attention = block.attention
        q, k, v = attention.project_qkv(block.norm_attn.forward(hidden), positions)
        layer_cache.append(k, v)
        hidden = hidden + attention._attend_cache(q, layer_cache, positions)
        hidden = hidden + block.mlp.forward(block.norm_mlp.forward(hidden))
    return model._logits(hidden[0])


def build_caches(model, tokenizer, kind: str, capacity: int | None = None):
    """One pool (or none) and a prefilled cache per prompt length."""
    pool = None
    if kind == "paged":
        config = model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim,
            block_size=BLOCK_SIZE,
        )
    caches = []
    for n in PROMPT_LENGTHS:
        prompt = tokenizer.encode(["the"] * n + ["<sep>", "the"])
        cache = model.new_cache(
            capacity if capacity is None else len(prompt) + capacity, pool=pool
        )
        model.prefill(prompt, cache)
        cache.mark_context(n)
        caches.append(cache)
    return pool, caches


def snapshot(cache) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (layer.keys().copy(), layer.values().copy()) for layer in cache.layers
    ]


def assert_same_state(fused, reference) -> None:
    assert fused.length == reference.length
    for (k, v), (k_ref, v_ref) in zip(snapshot(fused), snapshot(reference)):
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(v, v_ref)
    if hasattr(fused, "table"):
        assert fused.table.block_ids == reference.table.block_ids


@pytest.mark.parametrize("kind", ["paged", "dense"])
def test_mixed_rows_match_the_token_major_reference(
    retrieval_model, tokenizer, kind
):
    model = retrieval_model
    rng = np.random.default_rng(0)
    fused_pool, fused = build_caches(model, tokenizer, kind)
    ref_pool, reference = build_caches(model, tokenizer, kind)
    for _ in range(6):
        # Every sequence gets a run of 1..K+1 rows (1 is a plain decode
        # row), in a shuffled sequence order.
        order = rng.permutation(len(fused))
        tokens, fused_rows, ref_rows = [], [], []
        for index in order:
            run = rng.integers(0, tokenizer.vocab_size, int(rng.integers(1, K + 2)))
            tokens.extend(int(t) for t in run)
            fused_rows.extend([fused[index]] * len(run))
            ref_rows.extend([reference[index]] * len(run))
        logits = model.decode_step_batch(tokens, fused_rows)
        assert len(logits) == len(tokens)
        for row, token, cache in zip(logits, tokens, ref_rows):
            np.testing.assert_array_equal(row, reference_decode(model, token, cache))
        for index in range(len(fused)):
            assert_same_state(fused[index], reference[index])
        if fused_pool is not None:
            assert fused_pool.n_allocated == ref_pool.n_allocated
            fused_pool.assert_consistent()
        # Roll back a rejected tail, as the engine does after a verify.
        for index in range(len(fused)):
            drop = int(rng.integers(0, 3))
            for cache in (fused[index], reference[index]):
                cache.truncate(cache.length - drop)


@pytest.mark.parametrize("kind", ["paged", "dense"])
def test_an_overflowing_run_raises_before_any_cache_moves(
    retrieval_model, tokenizer, kind
):
    model = retrieval_model
    pool, caches = build_caches(model, tokenizer, kind, capacity=3)
    before = [snapshot(cache) for cache in caches]
    blocks = [
        list(cache.table.block_ids) if pool is not None else None
        for cache in caches
    ]
    n_allocated = pool.n_allocated if pool is not None else None
    # The first two sequences fit; the last one's run of 4 does not.
    rows = [caches[0], caches[1], caches[1], caches[2], caches[2], caches[2], caches[2]]
    with pytest.raises(ValueError, match="4 rows from length .* do not fit"):
        model.decode_step_batch([5] * len(rows), rows)
    for cache, state, ids in zip(caches, before, blocks):
        assert cache.length == state[0][0].shape[0]
        for (k, v), (k_old, v_old) in zip(snapshot(cache), state):
            np.testing.assert_array_equal(k, k_old)
            np.testing.assert_array_equal(v, v_old)
        if pool is not None:
            assert cache.table.block_ids == ids
    if pool is not None:
        assert pool.n_allocated == n_allocated
