"""Pluggable decode backends and their registry.

A :class:`DecodeBackend` owns everything method-specific about serving one
request: prefill, quantization planning, cache preparation and the per-token
decode step.  What it hands back to the engine is a
:class:`~repro.model.decode.DecodeSession` wrapped in a
:class:`PreparedSequence`, so the continuous-batching scheduler can drive
every method — Cocktail's dense fake-quant path, Cocktail's blockwise
Algorithm-1 path and all the paper's baselines — through the exact same
step interface.

Backends resolve by name through a registry: ``"dense"``/``"cocktail"``,
``"blockwise"``, and the baseline method names from
:data:`repro.baselines.registry.BASELINE_NAMES`.  New methods plug in via
:func:`register_backend` (globally) or
:meth:`repro.serving.engine.InferenceEngine.add_backend` (per engine).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.baselines.base import (
    KVCacheQuantizer,
    KVQuantizationPlan,
    QuantizationRequest,
)
from repro.baselines.registry import BASELINE_NAMES, get_baseline
from repro.core.cache import ChunkedLayerCache
from repro.core.computation import chunk_level_decode_attention
from repro.kvpool.cache import PagedKVCache
from repro.model.decode import DecodeSession
from repro.model.kv_cache import LayerKVCache, ModelKVCache
from repro.model.tokenizer import Tokenizer
from repro.model.transformer import Transformer
from repro.quant.dtypes import BitWidth, bytes_for_elements
from repro.retrieval.chunking import chunk_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.serving.engine import InferenceEngine
    from repro.serving.request import GenerationRequest


def build_quantization_request(
    context_words: Sequence[str],
    query_words: Sequence[str],
    chunk_size: int,
    cache: ModelKVCache | None = None,
) -> QuantizationRequest:
    """Chunk a context and package everything a quantization search needs.

    Shared by the serving backends, :meth:`CocktailPipeline.build_request`
    and the evaluation harness so the request layout cannot drift.
    """
    chunks, tail = chunk_words(list(context_words), chunk_size)
    return QuantizationRequest(
        context_len=len(context_words),
        chunk_size=chunk_size,
        chunk_texts=[chunk.text for chunk in chunks],
        chunk_spans=[(chunk.start, chunk.end) for chunk in chunks],
        tail_span=(tail.start, tail.end) if tail is not None else None,
        query_text=" ".join(query_words),
        cache=cache,
    )


def prompt_token_ids(
    tokenizer: Tokenizer,
    context_words: Sequence[str],
    query_words: Sequence[str],
) -> list[int]:
    """Token IDs of the full prompt (context, separator, query)."""
    prompt_words = list(context_words) + ["<sep>"] + list(query_words)
    return tokenizer.encode(prompt_words)


def _release_cache(cache) -> None:
    """Return a cache's pool pages, if it has any (no-op for dense caches)."""
    release = getattr(cache, "release", None)
    if release is not None:
        release()


def _paged_hooks(cache) -> dict:
    """Swap/release/accounting hooks of a pool-backed cache (else empty)."""
    if isinstance(cache, PagedKVCache):
        return {
            "swap_out": cache.swap_out,
            "swap_in": cache.swap_in,
            "release": cache.release,
            "kv_bytes": cache.measured_bytes,
        }
    return {}


class PrefillJob:
    """Incremental prefill of one admitted request (chunked admission).

    Under an engine ``max_prefill_tokens_per_step`` budget, a long prompt no
    longer prefills inline at admission — each call to :meth:`advance` runs
    the model's prefill forward over the *next chunk only*, so one
    long-context arrival stops stalling every in-flight decode for a whole
    round.  Between steps the partially filled cache stays pinned: pool
    pages for the standard path, a private dense scratch cache for the warm
    prefix-adoption path (``scratch=True``).  When the job is :attr:`done`,
    :meth:`DecodeBackend.prepare` consumes it — planning, quantization and
    packing then run exactly as they would have after a one-shot prefill,
    so chunked admission changes *when* prefill compute happens, never what
    it computes.
    """

    def __init__(
        self,
        backend: "DecodeBackend",
        request: "GenerationRequest",
        cache,
        *,
        scratch: bool = False,
    ):
        self.backend = backend
        self.request = request
        self.cache = cache
        self.scratch = scratch
        self.prompt = prompt_token_ids(
            backend.tokenizer, request.context_words, request.query_words
        )
        self.n_done = 0
        self.first_logits: np.ndarray | None = None
        self._released = False

    @property
    def n_tokens(self) -> int:
        """Total prompt tokens this job will prefill."""
        return len(self.prompt)

    @property
    def n_remaining(self) -> int:
        """Prompt tokens still to prefill."""
        return len(self.prompt) - self.n_done

    @property
    def done(self) -> bool:
        """Whether the whole prompt has been prefilled."""
        return self.n_done >= len(self.prompt)

    def live_tokens(self) -> int:
        """KV rows the partial prefill currently pins."""
        return 0 if self._released else self.cache.live_tokens()

    def advance(self, max_tokens: int) -> int:
        """Prefill up to ``max_tokens`` more prompt tokens; returns how many ran."""
        if self.done:
            raise RuntimeError("prefill is already complete")
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        chunk = self.prompt[self.n_done : self.n_done + max_tokens]
        logits = self.backend.model.prefill(chunk, self.cache)
        self.n_done += len(chunk)
        if self.done:
            self.first_logits = logits
        return len(chunk)

    def release(self) -> None:
        """Return the partial cache's pool pages (idempotent; scratch is a no-op)."""
        if not self._released:
            _release_cache(self.cache)
            self._released = True


@dataclass
class PreparedSequence:
    """A request after prefill, ready for step-at-a-time decoding.

    Attributes
    ----------
    session:
        The decode state machine the scheduler advances token by token.
    plan:
        The method's quantization plan (``None`` only for backends that do
        not quantize at all).
    n_prompt_tokens, n_context_tokens:
        Prompt layout, reported back on the result.
    live_tokens:
        Current number of KV rows this sequence holds (prompt + generated),
        used for capacity-aware admission and preemption.
    details:
        Backend-specific extras surfaced on the result (e.g. the blockwise
        backend's chunked caches).
    swap_out, swap_in:
        Optional preemption hooks of pool-backed sequences: ``swap_out``
        evicts every page to a host-side store (freeing pool capacity) and
        ``swap_in`` restores them, so the decode session resumes without
        recompute.  Backends that cannot swap leave them ``None`` and the
        engine falls back to recompute preemption.
    release:
        Optional cleanup freeing pool pages when the sequence finishes or
        is preempted for recompute.
    kv_bytes:
        Optional measured-memory probe; returns the sequence's current
        resident KV bytes breakdown (see
        :meth:`repro.kvpool.cache.PagedKVCache.measured_bytes`).
    cached_tokens, cache_hit_blocks, cached_bytes:
        Prefix-reuse outcome of this preparation: context tokens / pool
        pages adopted from the engine's prefix index and the measured bytes
        of those pages (prefill storage the request did not re-create).
    cache:
        The decode cache the session appends to, exposed so a fused
        ``step_batch`` call can advance many sequences through one model
        forward.  ``None`` for backends whose decode state is not a plain
        model cache (blockwise).
    batch_key:
        Fused-execution group: sequences carrying the same non-``None`` key
        are advanced through **one** :meth:`DecodeBackend.step_batch` call
        per engine step.  ``None`` keeps the sequence on the sequential
        path.
    prompt_ids:
        Token IDs of the full prompt, kept for the speculative-decoding
        draft proposer (prompt-lookup drafting matches n-grams over prompt
        + generated history).  ``None`` when the backend does not surface
        them.  A sequence with a ``batch_key`` may run speculative verify
        rows through the same fused :meth:`DecodeBackend.step_batch`, with
        :meth:`~repro.kvpool.cache.PagedKVCache.truncate` rollback.
    """

    session: DecodeSession
    plan: KVQuantizationPlan | None
    n_prompt_tokens: int
    n_context_tokens: int
    live_tokens: Callable[[], int]
    details: dict = field(default_factory=dict, repr=False)
    swap_out: Callable[[], None] | None = None
    swap_in: Callable[[], None] | None = None
    release: Callable[[], None] | None = None
    kv_bytes: Callable[[], dict] | None = None
    cached_tokens: int = 0
    cache_hit_blocks: int = 0
    cached_bytes: int = 0
    cache: object | None = field(default=None, repr=False)
    batch_key: str | None = None
    prompt_ids: tuple[int, ...] | None = None

    @property
    def supports_swap(self) -> bool:
        """Whether this sequence can be preempted by swapping its pages out."""
        return self.swap_out is not None and self.swap_in is not None


class DecodeBackend(abc.ABC):
    """Method-specific prefill + decode-step implementation."""

    #: Registry name (instances may override per construction).
    name: str = "backend"

    def __init__(self, engine: "InferenceEngine"):
        self.engine = engine

    @property
    def model(self) -> Transformer:
        return self.engine.model

    @property
    def tokenizer(self) -> Tokenizer:
        return self.engine.tokenizer

    def _stop_ids(self, request: "GenerationRequest") -> tuple[int, ...]:
        stops: tuple[int, ...] = request.extra_stop_ids
        if request.stop_on_special:
            stops = (self.tokenizer.eos_id, self.tokenizer.sep_id) + stops
        return stops

    def _prefill(
        self, request: "GenerationRequest", prefill: PrefillJob | None = None
    ) -> tuple[ModelKVCache | PagedKVCache, np.ndarray, list[int]]:
        """Full-precision prefill of the request prompt.

        The cache comes from the engine: a pool-backed
        :class:`~repro.kvpool.cache.PagedKVCache` by default, or the dense
        reference cache when the engine was built with ``kv_cache="dense"``.
        If prefill dies half-way (e.g. the pool runs out of pages), the
        partially written pages are returned to the pool before the error
        propagates.  A finished :class:`PrefillJob` short-circuits the
        forward — its chunked passes already filled the cache.
        """
        if prefill is not None:
            if not prefill.done:
                raise RuntimeError("prepare() needs a finished prefill job")
            cache = prefill.cache
            try:
                cache.mark_context(len(request.context_words))
            except Exception:
                _release_cache(cache)
                raise
            return cache, prefill.first_logits, prefill.prompt
        prompt = prompt_token_ids(
            self.tokenizer, request.context_words, request.query_words
        )
        cache = self.engine.new_kv_cache()
        try:
            first_logits = self.model.prefill(prompt, cache)
            cache.mark_context(len(request.context_words))
        except Exception:
            _release_cache(cache)
            raise
        return cache, first_logits, prompt

    @abc.abstractmethod
    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob | None = None
    ) -> PreparedSequence:
        """Prefill, plan/apply quantization and return the decode session.

        ``prefill`` hands over a *finished* :class:`PrefillJob` when the
        engine metered the prompt across several steps (chunked admission);
        the backend then skips its own prefill and consumes the job's cache
        and first-token logits instead.
        """

    # -- batched execution ---------------------------------------------------

    #: Fused-execution group key stamped on prepared sequences when
    #: :attr:`supports_batched_step` holds.  Every backend driving the
    #: standard transformer decode over a plain model cache shares one key,
    #: so a mixed dense/cocktail/ablation batch still fuses into a single
    #: forward per engine step.
    TRANSFORMER_BATCH_KEY = "transformer-decode"

    @property
    def supports_batched_step(self) -> bool:
        """Whether this backend's prepared sequences may be fused into one
        :meth:`step_batch` forward per engine step (and so may speculate).
        ``False`` keeps every sequence on the sequential
        one-forward-per-token path."""
        return False

    def step_batch(
        self, token_ids: Sequence[int], sequences: Sequence[PreparedSequence]
    ) -> list[np.ndarray]:
        """One fused decode forward for ``sequences`` (same ``batch_key``).

        ``token_ids[i]`` is the token fed for ``sequences[i]``; the return
        value is one next-token logits row per input row, in order.  A
        sequence repeats once per row of its speculative verify run (see
        :meth:`~repro.model.transformer.Transformer.decode_step_batch`).
        """
        raise NotImplementedError(
            f"backend {self.name!r} decodes on the sequential path"
        )

    # -- chunked prefill ------------------------------------------------------

    def start_prefill(self, request: "GenerationRequest") -> PrefillJob | None:
        """Begin a chunked prefill for ``request``, or ``None``.

        Backends returning ``None`` do not support metered admission; the
        engine then falls back to one-shot :meth:`prepare` regardless of
        the prefill budget.
        """
        del request
        return None

    def probe_cached_blocks(self, request: "GenerationRequest") -> int:
        """Estimate how many pool pages a request would adopt from the
        prefix index (admission-cost hint; 0 when the backend cannot tell).

        The scheduler subtracts this from the page demand it charges at
        admission, so a warm repeated-context request is not blocked on
        capacity it will never allocate.  The estimate is optimistic by
        design — entries may be evicted before ``prepare`` runs — and the
        engine's preemption machinery corrects any overshoot.
        """
        del request
        return 0

    def prefix_route_keys(
        self, request: "GenerationRequest"
    ) -> tuple[str | None, list[str]]:
        """The ``(fingerprint, chained block hashes)`` a router would index
        this request under — computed *without* touching any engine state.

        ``(None, [])`` means the request's pages cannot be keyed ahead of
        prefill (no sharing fingerprint, or the planner needs the prefilled
        cache); a prefix-affinity router then falls back to load-only
        placement.  When keys are returned they match what
        :meth:`prepare` will publish into the owning engine's
        :class:`~repro.kvpool.prefix.PrefixCache` bit for bit, so a global
        hash index over many workers can resolve longest-prefix placement
        before the request is dispatched anywhere.
        """
        del request
        return None, []


class QuantizedDenseBackend(DecodeBackend):
    """Fake-quantize the context cache, then decode on the standard path.

    This one backend serves every method exposing the common
    :class:`~repro.baselines.base.KVCacheQuantizer` interface: the FP16 /
    Atom / KIVI / KVQuant baselines, Cocktail's dense mode and the ablation
    variants.
    """

    def __init__(
        self,
        engine: "InferenceEngine",
        quantizer: KVCacheQuantizer,
        name: str | None = None,
    ):
        super().__init__(engine)
        self.quantizer = quantizer
        self.name = name or quantizer.name

    @property
    def supports_batched_step(self) -> bool:
        """Token-local quantizers fuse; per-request fitted codebooks do not.

        The fused kernel shares dequantization tables across the batch, so
        methods whose decode-time state is fitted per request (KIVI,
        KVQuant — see
        :attr:`~repro.baselines.base.KVCacheQuantizer.fitted_context_state`)
        fall back to the sequential path transparently.
        """
        return not self.quantizer.fitted_context_state

    def step_batch(
        self, token_ids: Sequence[int], sequences: Sequence[PreparedSequence]
    ) -> list[np.ndarray]:
        """Run every row through one fused model forward."""
        caches = []
        for sequence in sequences:
            if sequence.cache is None:
                raise ValueError("sequence carries no decode cache to batch over")
            caches.append(sequence.cache)
        return self.model.decode_step_batch(list(token_ids), caches)

    def start_prefill(self, request: "GenerationRequest") -> PrefillJob:
        """Chunked prefill into the cache :meth:`prepare` will consume.

        The warm prefix-adoption path prefills a private dense scratch (its
        storage is assembled from shared pages afterwards); the cold path
        prefills pool pages directly, which stay pinned between chunks.
        """
        prefix_cache = self.engine.prefix_cache
        if prefix_cache is not None and prefix_cache.n_blocks > 0:
            return PrefillJob(self, request, self.model.new_cache(), scratch=True)
        return PrefillJob(self, request, self.engine.new_kv_cache())

    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob | None = None
    ) -> PreparedSequence:
        prefix_cache = self.engine.prefix_cache
        if prefill is not None:
            # The admission route was fixed when the job started; honour it
            # even if the index filled up (or emptied) between the chunks.
            warm = prefill.scratch
        else:
            # Only when the index holds pages that could possibly match is
            # the scratch-prefill adoption path worth its extra row copy; a
            # cold engine prefills straight into the pool below and merely
            # *publishes* its pages afterwards.
            warm = prefix_cache is not None and prefix_cache.n_blocks > 0
        if warm:
            return self._prepare_with_prefix_cache(request, prefill)
        cache, first_logits, prompt = self._prefill(request, prefill)
        try:
            qrequest = build_quantization_request(
                request.context_words,
                request.query_words,
                self.engine.chunk_size,
                cache,
            )
            plan = self.quantizer.plan(qrequest)
            if isinstance(cache, PagedKVCache):
                encodings = self.quantizer.encode_context(cache, plan)
                if encodings is None:
                    # No packed-storage encoder: keep the fake-quant floats
                    # in full-precision pages (correct, just not compact).
                    self.quantizer.apply(cache, plan)
                else:
                    cache.pack_context(encodings)
                if prefix_cache is not None:
                    self._publish(prompt, plan, cache)
            else:
                self.quantizer.apply(cache, plan)
        except Exception:
            _release_cache(cache)
            raise
        session = self.model.decode_session(
            cache,
            first_logits,
            max_new_tokens=request.max_new_tokens,
            stop_ids=self._stop_ids(request),
            sampler=request.sampling.build_sampler(),
        )
        return PreparedSequence(
            session=session,
            plan=plan,
            n_prompt_tokens=len(prompt),
            n_context_tokens=len(request.context_words),
            live_tokens=cache.live_tokens,
            cache=cache,
            batch_key=self.TRANSFORMER_BATCH_KEY if self.supports_batched_step else None,
            prompt_ids=tuple(prompt),
            **_paged_hooks(cache),
        )

    def _plan_request(self, request: "GenerationRequest", cache):
        """Run this method's quantization planning for one request."""
        qrequest = build_quantization_request(
            request.context_words,
            request.query_words,
            self.engine.chunk_size,
            cache,
        )
        return self.quantizer.plan(qrequest)

    def _reuse_keys(self, plan, context_ids) -> tuple[str | None, list[str]]:
        """The (fingerprint, chained block hashes) pair of one planned request."""
        from repro.kvpool.prefix import block_hashes

        fingerprint = self.quantizer.reuse_fingerprint(plan, context_ids)
        if fingerprint is None:
            return None, []
        return fingerprint, block_hashes(
            fingerprint, context_ids, plan.token_bits, self.engine.pool.block_size
        )

    def _publish(self, prompt: list[int], plan, cache: PagedKVCache) -> None:
        """Insert a freshly packed request's full-context pages into the index."""
        context_ids = prompt[: cache.n_context]
        fingerprint, hashes = self._reuse_keys(plan, context_ids)
        if fingerprint is not None:
            self.engine.prefix_cache.insert(
                fingerprint, hashes, cache.table.block_ids[: len(hashes)]
            )

    def probe_cached_blocks(self, request: "GenerationRequest") -> int:
        """Peek the prefix index with a cache-free plan (no state touched)."""
        prefix_cache = self.engine.prefix_cache
        if prefix_cache is None or prefix_cache.n_blocks == 0:
            return 0  # nothing can match; skip the duplicate planning work
        prompt = prompt_token_ids(
            self.tokenizer, request.context_words, request.query_words
        )
        context_ids = prompt[: len(request.context_words)]
        try:
            plan = self._plan_request(request, None)
        except Exception:
            # Planners that need the prefilled cache (KVQuant's outlier
            # ranking) cannot be probed ahead of prefill; charge full cost.
            return 0
        fingerprint, hashes = self._reuse_keys(plan, context_ids)
        if fingerprint is None:
            return 0
        return prefix_cache.peek(fingerprint, hashes)

    def prefix_route_keys(
        self, request: "GenerationRequest"
    ) -> tuple[str | None, list[str]]:
        """Cache-free routing keys: the same plan-then-hash walk as
        :meth:`probe_cached_blocks`, but returning the keys themselves."""
        if self.engine.pool is None:
            return None, []
        prompt = prompt_token_ids(
            self.tokenizer, request.context_words, request.query_words
        )
        context_ids = prompt[: len(request.context_words)]
        try:
            plan = self._plan_request(request, None)
        except Exception:
            # Planners that need the prefilled cache (KVQuant's outlier
            # ranking) cannot be keyed ahead of prefill.
            return None, []
        return self._reuse_keys(plan, context_ids)

    def _prepare_with_prefix_cache(
        self, request: "GenerationRequest", prefill: PrefillJob | None = None
    ) -> PreparedSequence:
        """Prefill once at full precision, then adopt every matched page.

        Bit-exactness constraint: prefill attends over the full-precision
        K/V of the whole prompt, while the index stores *quantized* pages —
        so the prefill runs into a private dense scratch cache (same
        numerics as the reference path; under chunked admission the
        engine's :class:`PrefillJob` filled that scratch across steps) and
        only the storage is assembled from shared pages + freshly written
        unmatched rows.  The decode phase then sees exactly the pages the
        cold path would have built: matched pages byte-identical by
        construction of the hash chain, unmatched rows packed from the same
        deterministic encodings.
        """
        engine = self.engine
        prefix_cache = engine.prefix_cache
        pool = engine.pool
        n_context = len(request.context_words)
        if prefill is not None:
            if not prefill.done:
                raise RuntimeError("prepare() needs a finished prefill job")
            prompt = prefill.prompt
            scratch = prefill.cache
            first_logits = prefill.first_logits
        else:
            prompt = prompt_token_ids(
                self.tokenizer, request.context_words, request.query_words
            )
            scratch = self.model.new_cache()
            first_logits = self.model.prefill(prompt, scratch)
        context_ids = prompt[:n_context]
        scratch.mark_context(n_context)
        plan = self._plan_request(request, scratch)
        fingerprint, hashes = self._reuse_keys(plan, context_ids)
        cache = engine.new_kv_cache()
        try:
            matched_ids = prefix_cache.match(fingerprint, hashes) if hashes else []
            matched_tokens = len(matched_ids) * pool.block_size
            cached_bytes = sum(
                pool.get(block_id).storage_bytes() for block_id in matched_ids
            )
            cache.adopt_blocks(matched_ids, matched_tokens)
            encodings = self.quantizer.encode_context(
                scratch, plan, start=matched_tokens
            )
            if encodings is None:
                # No packed encoder: materialise the fake-quant floats in the
                # scratch cache so the copied pages hold what decode reads.
                self.quantizer.apply(scratch, plan)
            for layer_index, layer in enumerate(scratch.layers):
                cache.append_layer(
                    layer_index,
                    layer.keys()[matched_tokens:],
                    layer.values()[matched_tokens:],
                )
            cache.mark_context(n_context)
            if encodings is not None:
                cache.pack_context(
                    encodings, first_block=matched_tokens // pool.block_size
                )
            if fingerprint is not None:
                prefix_cache.insert(
                    fingerprint, hashes, cache.table.block_ids[: len(hashes)]
                )
        except Exception:
            _release_cache(cache)
            raise
        session = self.model.decode_session(
            cache,
            first_logits,
            max_new_tokens=request.max_new_tokens,
            stop_ids=self._stop_ids(request),
            sampler=request.sampling.build_sampler(),
        )
        return PreparedSequence(
            session=session,
            plan=plan,
            n_prompt_tokens=len(prompt),
            n_context_tokens=n_context,
            live_tokens=cache.live_tokens,
            cached_tokens=matched_tokens,
            cache_hit_blocks=len(matched_ids),
            cached_bytes=cached_bytes,
            cache=cache,
            batch_key=self.TRANSFORMER_BATCH_KEY if self.supports_batched_step else None,
            prompt_ids=tuple(prompt),
            **_paged_hooks(cache),
        )


class _BlockwiseDecodeState:
    """Per-sequence state of the blockwise (Algorithm 1) decode path.

    The quantized context lives in per-layer :class:`ChunkedLayerCache`
    segments; query and generated tokens accumulate in small FP16 decode
    caches.  On a pool-backed engine those decode caches are pages of the
    shared :class:`~repro.kvpool.BlockPool` (one paged cache whose layer
    views stand in for the dense ``LayerKVCache`` objects), so even the
    blockwise path's growing state is a pool-accounted resource.  Each step
    runs chunk-level decode attention per layer.
    """

    def __init__(
        self,
        model: Transformer,
        cache: ModelKVCache | PagedKVCache,
        chunked_caches: list[ChunkedLayerCache],
    ):
        self.model = model
        self.chunked_caches = chunked_caches
        config = model.config
        n_context = cache.n_context
        # The non-quantized region (query tokens) seeds the FP16 decode caches.
        decode_capacity = cache.capacity - n_context
        self.paged_decode_cache: PagedKVCache | None = None
        if isinstance(cache, PagedKVCache):
            self.paged_decode_cache = PagedKVCache(cache.pool, decode_capacity)
            self.decode_caches = list(self.paged_decode_cache.layers)
        else:
            self.decode_caches = [
                LayerKVCache(config.n_kv_heads, config.head_dim, decode_capacity)
                for _ in cache.layers
            ]
        try:
            for layer, decode_cache in zip(cache.layers, self.decode_caches):
                decode_cache.append(
                    layer.k[n_context : layer.length].copy(),
                    layer.v[n_context : layer.length].copy(),
                )
        except Exception:
            if self.paged_decode_cache is not None:
                self.paged_decode_cache.release()
            raise
        self.position = cache.length
        self.capacity = cache.capacity

    def has_capacity(self) -> bool:
        if self.position >= self.capacity:
            return False
        if self.paged_decode_cache is not None:
            return self.paged_decode_cache.has_capacity()
        return True

    def live_tokens(self) -> int:
        return self.position

    def kv_bytes(self) -> dict:
        """Measured bytes: chunked context segments + decode-cache pages."""
        context_bytes = sum(c.storage_bytes() for c in self.chunked_caches)
        context_fp16 = sum(c.fp16_storage_bytes() for c in self.chunked_caches)
        if self.paged_decode_cache is not None:
            decode = self.paged_decode_cache.measured_bytes()
            generated_bytes = decode["total_bytes"]
            n_blocks = decode["n_blocks"]
        else:
            n_rows = self.decode_caches[0].length if self.decode_caches else 0
            generated_bytes = n_rows * sum(
                bytes_for_elements(2 * c.n_kv_heads * c.head_dim, BitWidth.FP16)
                for c in self.chunked_caches
            )
            n_blocks = 0
        return {
            "context_bytes": context_bytes,
            "generated_bytes": generated_bytes,
            "total_bytes": context_bytes + generated_bytes,
            "context_fp16_bytes": context_fp16,
            "n_blocks": n_blocks,
        }

    def step(self, token_id: int) -> np.ndarray:
        """One decode step with chunk-level KV cache computation per layer."""
        model = self.model
        config = model.config
        positions = np.asarray([self.position])
        hidden = model.embed([token_id], positions)
        for layer_index, block in enumerate(model.blocks):
            attn_in = block.norm_attn.forward(hidden)
            attention = block.attention
            q, k_new, v_new = attention.project_qkv(attn_in, positions)
            q = q[0]
            self.decode_caches[layer_index].append(k_new, v_new)
            context_vectors = chunk_level_decode_attention(
                q,
                self.chunked_caches[layer_index],
                self.decode_caches[layer_index].keys(),
                self.decode_caches[layer_index].values(),
                gqa_group=config.gqa_group,
                scale=config.attention_temperature / np.sqrt(config.head_dim),
            )
            attn_out = np.einsum("he,hed->d", context_vectors, attention.weights.wo)
            hidden = hidden + attn_out[None, :]
            hidden = hidden + block.mlp.forward(block.norm_mlp.forward(hidden))
        self.position += 1
        return model._logits(hidden[0])


class BlockwiseBackend(DecodeBackend):
    """Cocktail's Algorithm 1 over the reordered mixed-precision cache.

    The blockwise step *is* the paper's custom chunk-level decode kernel
    (its own per-layer attention over chunked segments), so it stays on the
    sequential path — :attr:`supports_batched_step` remains ``False`` —
    while still admitting through chunked prefill.
    """

    name = "blockwise"

    def start_prefill(self, request: "GenerationRequest") -> PrefillJob:
        """Chunked prefill into pool pages (released once chunked caches are built)."""
        return PrefillJob(self, request, self.engine.new_kv_cache())

    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob | None = None
    ) -> PreparedSequence:
        engine = self.engine
        cache, first_logits, prompt = self._prefill(request, prefill)
        try:
            qrequest = build_quantization_request(
                request.context_words,
                request.query_words,
                engine.chunk_size,
                cache,
            )
            plan = engine.quantizer.plan(qrequest)
            chunked_caches = engine.quantizer.build_chunked_caches(cache, plan)
            state = _BlockwiseDecodeState(self.model, cache, chunked_caches)
        finally:
            # The chunked context + decode caches carry everything decode
            # needs; the prefill pages go back to the pool immediately.
            _release_cache(cache)
        session = DecodeSession(
            state.step,
            first_logits,
            max_new_tokens=request.max_new_tokens,
            stop_ids=self._stop_ids(request),
            sampler=request.sampling.build_sampler(),
            has_capacity=state.has_capacity,
        )
        return PreparedSequence(
            session=session,
            plan=plan,
            n_prompt_tokens=len(prompt),
            n_context_tokens=len(request.context_words),
            live_tokens=state.live_tokens,
            details={"chunked_caches": chunked_caches},
            **{**_paged_hooks(state.paged_decode_cache), "kv_bytes": state.kv_bytes},
        )


# -- registry ----------------------------------------------------------------

BackendFactory = Callable[["InferenceEngine"], DecodeBackend]

_BACKEND_FACTORIES: dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register a decode-backend factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _BACKEND_FACTORIES and not overwrite:
        raise KeyError(f"backend {name!r} is already registered")
    _BACKEND_FACTORIES[key] = factory


def backend_names() -> tuple[str, ...]:
    """All globally registered backend names."""
    return tuple(sorted(_BACKEND_FACTORIES))


def create_backend(name: str, engine: "InferenceEngine") -> DecodeBackend:
    """Instantiate the backend registered under ``name`` for ``engine``."""
    key = name.lower()
    try:
        factory = _BACKEND_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown decode backend {name!r}; registered: {list(backend_names())}"
        ) from None
    return factory(engine)


def _dense_cocktail(engine: "InferenceEngine", name: str) -> DecodeBackend:
    return QuantizedDenseBackend(engine, engine.quantizer, name=name)


def _baseline_backend(engine: "InferenceEngine", name: str) -> DecodeBackend:
    return QuantizedDenseBackend(engine, get_baseline(name), name=name)


register_backend("dense", lambda engine: _dense_cocktail(engine, "dense"))
register_backend("cocktail", lambda engine: _dense_cocktail(engine, "cocktail"))
register_backend("blockwise", BlockwiseBackend)
for _name in BASELINE_NAMES:
    register_backend(_name, lambda engine, _n=_name: _baseline_backend(engine, _n))
del _name
