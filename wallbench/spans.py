"""In-memory spans recorded by wrapping the serving stack from outside.

:class:`Tracer` replaces a layer's public entry points with thin wrappers
that append one
``[name, start, end, parent, request_id, size]`` record per call to a
per-thread list.  Nothing in ``src/`` is modified; :meth:`Tracer.uninstall`
restores every original attribute.

The wrapped names are the ones callers actually look up at call time:
methods on their defining classes, and ``chunk_level_decode_attention`` in
the namespace of :mod:`repro.serving.backends`, which imported it by name.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RID, SIZE = range(6)


class Tracer:
    """Per-thread span lists with parent links, plus installed wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: ``thread label -> span records`` (records index their parent).
        self.threads: dict[str, list[list]] = {}
        #: Result summaries captured from ``EngineCore.result`` calls.
        self.results: dict[str, dict] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _local(self):
        tls = self._tls
        if getattr(tls, "spans", None) is None:
            tls.spans, tls.stack = [], []
            label = f"{threading.current_thread().name}#{threading.get_ident()}"
            with self._lock:
                self.threads[label] = tls.spans
        return tls

    def wrap(self, fn, name, *, size=None, rid=None, on_return=None):
        """``fn`` recording a span per call; hooks run after the end stamp."""
        clock = self.clock
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tls = local()
            spans, stack = tls.spans, tls.stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            value = None
            try:
                value = fn(*args, **kwargs)
                return value
            finally:
                record[END] = clock()
                stack.pop()
                if size is not None:
                    record[SIZE] = size(args, kwargs)
                if rid is not None:
                    record[RID] = rid(args, kwargs)
                if on_return is not None and value is not None:
                    on_return(args, value)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of harness code (e.g. a thread's root)."""
        tls = self._local()
        record = [name, 0.0, 0.0, tls.stack[-1] if tls.stack else -1, None, 0]
        tls.stack.append(len(tls.spans))
        tls.spans.append(record)
        record[START] = self.clock()
        try:
            yield record
        finally:
            record[END] = self.clock()
            tls.stack.pop()

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def all_spans(self):
        """``(thread label, records)`` pairs; records keep thread-local parents."""
        with self._lock:
            return list(self.threads.items())

    def write(self, path) -> None:
        """Gzipped JSON lines: one ``[thread, name, start, end, parent, rid, size]``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for label, spans in self.all_spans():
                prefix = json.dumps(label)
                out.writelines(
                    f"[{prefix}, {json.dumps(name)}, {start!r}, {end!r}, {parent}, "
                    f"{json.dumps(rid)}, {size}]\n"
                    for name, start, end, parent, rid, size in spans
                )


def _classes_defining(base, attr: str):
    """``base`` and every subclass whose own namespace defines ``attr``."""
    seen, todo, found = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__ and callable(cls.__dict__[attr]):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "request_id", None)


def summarize_result(result) -> dict:
    """The per-request numbers the layer metrics read from a finished result."""
    stats = result.stats
    kv = result.details.get("kv_bytes") or {}
    bits = None
    if result.plan is not None and result.plan.method == "cocktail" and result.n_context_tokens:
        bits = float(result.plan.token_bits.mean())
    return {
        "n_context": result.n_context_tokens,
        "cached_tokens": stats.cached_tokens,
        "context_bytes": kv.get("context_bytes"),
        "n_preemptions": stats.n_preemptions,
        "n_swap_outs": stats.n_swap_outs,
        "bits_mean": bits,
    }


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points (see README.md for the layer map)."""
    from repro.baselines.base import KVCacheQuantizer
    from repro.core.search import ChunkQuantizationSearch
    from repro.kvpool.cache import PagedKVCache
    from repro.model.transformer import Transformer
    from repro.retrieval.base import Encoder
    from repro.serving import backends
    from repro.serving.engine import EngineCore
    from repro.serving.server.core import ServerCore

    def capture(args, result):
        tracer.results[result.request_id] = summarize_result(result)

    tracer.patch(ServerCore, "submit", "server.submit", rid=_request_rid)
    tracer.patch(EngineCore, "submit", "engine.submit", rid=_request_rid)
    tracer.patch(EngineCore, "step", "engine.step")
    tracer.patch(EngineCore, "result", "engine.result", on_return=capture)
    for cls in _classes_defining(backends.DecodeBackend, "prepare"):
        tracer.patch(cls, "prepare", "backend.prepare", rid=_request_rid)
    tracer.patch(ChunkQuantizationSearch, "search", "core.search",
                 size=lambda a, k: len(a[1]))
    tracer.patch(backends, "chunk_level_decode_attention", "core.blockwise_attend")
    for cls in _classes_defining(Encoder, "similarity"):
        tracer.patch(cls, "similarity", "retrieval.similarity",
                     size=lambda a, k: len(a[2]))
    for cls in _classes_defining(KVCacheQuantizer, "plan"):
        tracer.patch(cls, "plan", "quant.plan")
    for attr in ("encode_context", "apply"):
        for cls in _classes_defining(KVCacheQuantizer, attr):
            tracer.patch(
                cls, attr, "quant.encode",
                size=lambda a, k: a[2].context_len - int(k.get("start", 0)),
            )
    tracer.patch(
        PagedKVCache, "pack_context", "kvpool.pack",
        size=lambda a, k: a[0].n_context - int(k.get("first_block", 0)) * a[0].table.block_size,
    )
    # Every read (``keys``/``values``, the attention mirrors, quantizers'
    # ``context_kv``) funnels through ``gather_layer``.
    tracer.patch(PagedKVCache, "gather_layer", "kvpool.gather")
    tracer.patch(Transformer, "prefill", "model.prefill", size=lambda a, k: len(a[1]))
    tracer.patch(Transformer, "decode_step", "model.decode_seq", size=lambda a, k: 1)
    tracer.patch(Transformer, "decode_step_batch", "model.decode_batch",
                 size=lambda a, k: len(a[1]))


def per_span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (measured here, now)."""
    def bare():
        return None

    best = float("inf")
    for _ in range(3):
        wrapped = Tracer().wrap(bare, "calibration")
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
