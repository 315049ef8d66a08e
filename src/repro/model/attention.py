"""Multi-head attention with KV caching.

Supports grouped-query attention (GQA), causal masking, RoPE or table
positional encodings, prefill over a block of tokens and single-token decode
against a layer cache.  The cache argument is duck-typed: anything exposing
``append``/``keys``/``values`` works, which is how the same attention code
drives both the dense :class:`~repro.model.kv_cache.LayerKVCache` and the
pool-backed :class:`~repro.kvpool.cache.PagedLayerView` (whose ``keys``
gathers and dequantizes packed context pages on the fly).

Decode hot-path notes
---------------------
``attend`` used to rebuild ``np.arange``/mask arrays and take two
``ascontiguousarray`` transpose copies of the full K/V history per layer per
step.  Three profiling-guided changes remove that:

- the strictly-causal decode case (one query at the last position) skips
  masking entirely — no key lies after the query, so nothing is written;
- caches may expose ``kv_mirrors()`` returning head-major transposed K/V
  views maintained incrementally (see ``PagedLayerView``), which replaces
  both per-call transpose copies with buffer reuse;
- the q/k/v projections of one token run as a single GEMM against the
  concatenated ``[Wq | Wk | Wv]`` weight (sgemm computes each output column
  as an independent dot product over ``d_model``, so the merged columns are
  the separate GEMMs' columns — ``test_merged_projection_bit_identity``
  guards this), and softmax runs in place on the logits buffer.

All of these are bit-preserving: they feed the same GEMMs/ufuncs the same
operand values, only with fewer kernel launches and allocations.

Prefill tiling
--------------
A long prompt attends in query tiles of :data:`_PREFILL_TILE` rows, the
causal block skipping of FlashAttention (Dao et al., 2022) done with NumPy
GEMMs.  A tile reads only the keys up to its last query, and only the
keys inside its own position range can be masked, so that triangle is
masked in place.  Peak memory drops from two ``(n_heads, n, n)`` float32
tensors to one ``(n_heads, _PREFILL_TILE, n)`` tile, and about half of the
quadratic work (the masked upper triangle) is never done.  Calls of at
most one tile are bit-identical to the untiled formula; longer prompts
differ only in the last float bits, because each softmax row sums over
fewer trailing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.config import ModelConfig
from repro.model.kv_cache import LayerKVCache
from repro.model.positional import apply_rope
from repro.profiling import span as profiling_span


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


#: Query rows per attention tile.  A call with at most this many queries is
#: one tile and computes the untiled formula bit for bit (every decode step,
#: verify run and short prompt); a longer prompt never materialises more than
#: ``(n_heads, _PREFILL_TILE, n_kv)`` logits.  On 1.5k-3k-token prefills of
#: the simulation models 128 and 256 ran within a few percent of each other
#: and 512 ran slower; 256 keeps more short prompts on the single-tile path.
_PREFILL_TILE = 256


@dataclass(frozen=True)
class AttentionWeights:
    """Projection weights of one attention layer.

    Shapes: ``wq`` ``(n_heads, d_model, head_dim)``, ``wk``/``wv``
    ``(n_kv_heads, d_model, head_dim)``, ``wo`` ``(n_heads, head_dim,
    d_model)``.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


class AttentionLayer:
    """One causal self-attention layer operating on a single sequence."""

    def __init__(self, weights: AttentionWeights, config: ModelConfig):
        self.weights = weights
        self.config = config
        self._scale = config.attention_temperature / np.sqrt(config.head_dim)
        # Pre-flattened projection weights: (d_model, n_heads * head_dim)
        # per tensor, plus the concatenated [Wq | Wk | Wv] used by the
        # single-GEMM qkv projection.  sgemm computes output columns
        # independently, so the merged result's columns are exactly the
        # separate GEMMs' columns.
        self._wq_flat = self._flatten_weight(weights.wq)
        self._wk_flat = self._flatten_weight(weights.wk)
        self._wv_flat = self._flatten_weight(weights.wv)
        self._w_qkv = np.ascontiguousarray(
            np.concatenate([self._wq_flat, self._wk_flat, self._wv_flat], axis=1)
        )
        self._q_width = self._wq_flat.shape[1]
        self._kv_width = self._wk_flat.shape[1]
        n_heads, head_dim, d_model = weights.wo.shape
        self._wo_flat = weights.wo.reshape(n_heads * head_dim, d_model)

    @staticmethod
    def _flatten_weight(weight: np.ndarray) -> np.ndarray:
        """``(n_heads, d_model, head_dim)`` -> ``(d_model, n_heads * head_dim)``."""
        n_heads, d_model, head_dim = weight.shape
        return np.ascontiguousarray(
            weight.transpose(1, 0, 2).reshape(d_model, n_heads * head_dim)
        )

    @staticmethod
    def _project(hidden: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Apply a per-head projection ``(n_heads, d_model, head_dim)`` via one GEMM."""
        n_heads, d_model, head_dim = weight.shape
        flat = hidden @ weight.transpose(1, 0, 2).reshape(d_model, n_heads * head_dim)
        return flat.reshape(hidden.shape[0], n_heads, head_dim)

    @staticmethod
    def _as_f32(array: np.ndarray) -> np.ndarray:
        """Cast to float32 only when needed (``astype`` always copies)."""
        if array.dtype == np.float32:
            return array
        return array.astype(np.float32)

    def project_q(self, hidden: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Project hidden states to per-head queries ``(n, n_heads, head_dim)``."""
        with profiling_span("project"):
            head_dim = self.config.head_dim
            flat = hidden @ self._wq_flat
            q = flat.reshape(hidden.shape[0], -1, head_dim)
            if self.config.positional == "rope":
                q = apply_rope(q, positions, self.config.rope_theta)
            return self._as_f32(q)

    def project_kv(
        self, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Project hidden states to keys/values ``(n, n_kv_heads, head_dim)``."""
        with profiling_span("project"):
            head_dim = self.config.head_dim
            k = (hidden @ self._wk_flat).reshape(hidden.shape[0], -1, head_dim)
            v = (hidden @ self._wv_flat).reshape(hidden.shape[0], -1, head_dim)
            if self.config.positional == "rope":
                k = apply_rope(k, positions, self.config.rope_theta)
            return self._as_f32(k), self._as_f32(v)

    def project_qkv(
        self, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project to queries, keys and values with one ``[Wq|Wk|Wv]`` GEMM.

        Column-wise sgemm independence makes the three slices bit-identical
        to :meth:`project_q` / :meth:`project_kv` on the same hidden states
        (guarded by the merged-projection parity test).
        """
        with profiling_span("project"):
            n = hidden.shape[0]
            head_dim = self.config.head_dim
            fused = hidden @ self._w_qkv
            q_w, kv_w = self._q_width, self._kv_width
            q = fused[:, :q_w].reshape(n, -1, head_dim)
            k = fused[:, q_w : q_w + kv_w].reshape(n, -1, head_dim)
            v = fused[:, q_w + kv_w :].reshape(n, -1, head_dim)
            if self.config.positional == "rope":
                q = apply_rope(q, positions, self.config.rope_theta)
                k = apply_rope(k, positions, self.config.rope_theta)
            return self._as_f32(q), self._as_f32(k), self._as_f32(v)

    def _expand_kv_heads(self, kv: np.ndarray) -> np.ndarray:
        """Repeat KV heads to match the number of query heads (GQA)."""
        group = self.config.gqa_group
        if group == 1:
            return kv
        return np.repeat(kv, group, axis=1)

    def _mirrors(self, cache) -> tuple[np.ndarray, np.ndarray] | None:
        """Head-major transposed K/V views of ``cache``, if it maintains them.

        Only usable when KV heads need no GQA expansion; callers fall back
        to the transpose-copy path otherwise.
        """
        if self.config.gqa_group != 1:
            return None
        getter = getattr(cache, "kv_mirrors", None)
        if getter is None:
            return None
        return getter()

    def attend(
        self,
        q: np.ndarray,
        keys: np.ndarray | None,
        values: np.ndarray | None,
        query_positions: np.ndarray,
        *,
        kv_mirrors: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Causal attention of queries against cached keys/values.

        Parameters
        ----------
        q:
            ``(n_q, n_heads, head_dim)`` queries.
        keys, values:
            ``(n_kv, n_kv_heads, head_dim)`` cached keys and values; may be
            ``None`` when ``kv_mirrors`` is given.
        query_positions:
            Global position of each query; a query at position ``p`` may
            attend to cache rows ``0..p`` inclusive.
        kv_mirrors:
            Optional pre-transposed ``(n_heads, head_dim, n_kv)`` keys and
            ``(n_heads, n_kv, head_dim)`` values (the layout the per-head
            GEMMs consume), typically incrementally-maintained cache views.
            Replaces the two ``ascontiguousarray`` transpose copies; the
            operand *values* are identical, so results are bit-identical.

        Returns
        -------
        numpy.ndarray
            ``(n_q, d_model)`` attention output (after the output projection).
        """
        with profiling_span("attend"):
            if kv_mirrors is not None:
                k_heads, v_heads = kv_mirrors
            else:
                keys_full = self._expand_kv_heads(keys)
                values_full = self._expand_kv_heads(values)
                k_heads = np.ascontiguousarray(keys_full.transpose(1, 2, 0))
                v_heads = np.ascontiguousarray(values_full.transpose(1, 0, 2))
            n_kv = k_heads.shape[2]
            positions = np.asarray(query_positions)
            bounds = positions.tolist()
            q_heads = np.ascontiguousarray(q.transpose(1, 0, 2))
            n_heads, n_q, head_dim = q_heads.shape
            context = np.empty((n_heads, n_q, head_dim), dtype=np.float32)
            # One logits buffer for every tile: a fresh (n_heads, tile, n_kv)
            # allocation would pay its page faults again on every tile.
            scratch = np.empty(
                n_heads * min(n_q, _PREFILL_TILE) * n_kv, dtype=np.float32
            )
            for start in range(0, n_q, _PREFILL_TILE):
                stop = min(start + _PREFILL_TILE, n_q)
                tile_bounds = bounds[start:stop]
                # Keys past the tile's last query are masked for all of its
                # rows, so they are skipped.  The final tile keeps every key:
                # a single-tile call is then the untiled formula verbatim,
                # even for queries that sit before the end of the cache.
                if stop == n_q:
                    n_keys = n_kv
                else:
                    n_keys = min(n_kv, max(tile_bounds) + 1)
                # (n_heads, tile, n_keys) logits via per-head GEMMs into the
                # scratch buffer, which this method owns, so the scale, mask
                # and softmax run in place.
                logits = scratch[: n_heads * (stop - start) * n_keys].reshape(
                    n_heads, stop - start, n_keys
                )
                np.matmul(q_heads[:, start:stop], k_heads[:, :, :n_keys], out=logits)
                np.multiply(logits, self._scale, out=logits)
                # Only keys after the tile's first query can be masked.
                first_masked = min(tile_bounds) + 1
                if first_masked < n_keys:
                    masked = (
                        np.arange(first_masked, n_keys) > positions[start:stop, None]
                    )
                    np.copyto(
                        logits[:, :, first_masked:n_keys],
                        np.float32(-1e9),
                        where=masked,
                    )
                # In-place softmax: same subtract/exp/divide as `softmax` on
                # a buffer this method owns, minus the temporaries.
                np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
                np.exp(logits, out=logits)
                probs = logits
                probs /= probs.sum(axis=-1, keepdims=True)
                np.matmul(probs, v_heads[:, :n_keys], out=context[:, start:stop])
            # Output projection: concatenate heads and apply one GEMM.
            context_flat = context.transpose(1, 0, 2).reshape(n_q, n_heads * head_dim)
            return self._as_f32(context_flat @ self._wo_flat)

    def _attend_cache(
        self, q: np.ndarray, cache, positions: np.ndarray
    ) -> np.ndarray:
        """Attend ``q`` against everything in ``cache`` (mirrors when offered)."""
        mirrors = self._mirrors(cache)
        if mirrors is not None:
            return self.attend(q, None, None, positions, kv_mirrors=mirrors)
        return self.attend(q, cache.keys(), cache.values(), positions)

    def forward_prefill(
        self, hidden: np.ndarray, cache: LayerKVCache, positions: np.ndarray
    ) -> np.ndarray:
        """Process a block of tokens, appending their K/V to ``cache``."""
        q, k, v = self.project_qkv(hidden, positions)
        cache.append(k, v)
        return self._attend_cache(q, cache, positions)

    def forward_decode(
        self, hidden: np.ndarray, cache: LayerKVCache, position: int
    ) -> np.ndarray:
        """Process a single token at ``position``, appending its K/V to ``cache``."""
        positions = np.asarray([position])
        q, k, v = self.project_qkv(hidden, positions)
        cache.append(k, v)
        return self._attend_cache(q, cache, positions)

    def forward_decode_batch(
        self,
        hidden: np.ndarray,
        caches: Sequence[LayerKVCache],
        positions: Sequence[int],
        *,
        fast_math: bool = False,
    ) -> np.ndarray:
        """One decode position for each of ``n`` *independent* sequences.

        ``hidden`` is the stacked ``(n, d_model)`` input (one row per
        sequence); row ``i`` is projected, appended to ``caches[i]`` and
        attended against that sequence's own K/V, exactly like
        :meth:`forward_decode` would.

        The projection GEMMs deliberately run per row rather than as one
        stacked ``(n, d_model) @ W`` GEMM: BLAS accumulates a stacked GEMM's
        rows in a shape-dependent order, so a sequence's logits would depend
        on *who else is in the batch* — unacceptable under continuous
        batching, where the batch composition changes every step.  Per-row
        GEMMs keep the fused step bit-identical to the sequential path for
        any batch mix (attention is per-sequence regardless, since every
        sequence gathers its own paged KV).  On real hardware this is where
        a batched kernel would trade that reduction-order freedom for
        throughput; in this reproduction the fusion win is one model
        invocation per engine step plus the shared gather/bookkeeping path.

        ``fast_math=True`` opts into exactly that trade: the q/k/v
        projections run as whole-batch stacked GEMMs, so outputs may drift
        within float tolerance and depend on batch composition.  Attention
        itself stays per-sequence either way.
        """
        if fast_math and hidden.shape[0] > 1:
            pos_array = np.asarray(positions)
            q, k, v = self.project_qkv(hidden, pos_array)
            out = np.empty(
                (hidden.shape[0], self.weights.wo.shape[2]), dtype=np.float32
            )
            for i, cache in enumerate(caches):
                cache.append(k[i : i + 1], v[i : i + 1])
                out[i] = self._attend_cache(
                    q[i : i + 1], cache, pos_array[i : i + 1]
                )[0]
            return out
        out = np.empty((hidden.shape[0], self.weights.wo.shape[2]), dtype=np.float32)
        for i, (cache, position) in enumerate(zip(caches, positions)):
            out[i] = self.forward_decode(hidden[i : i + 1], cache, int(position))[0]
        return out
