"""Decode hot-path benchmark: tokens/s, step-time percentiles, phase profile.

Serves the fig5-style concurrent request mix (8 requests, four cache
backends, ``max_running=4``) through the fused batched engine with a
:class:`~repro.profiling.StepProfiler` attached and reports the numbers the
optimisation pass is judged by: decode tokens per second of stepped wall
time, step-time p50/p95, and the per-phase breakdown (schedule / gather /
dequant / project / attend / mlp / logits / verify / bookkeeping).

Every run appends one sample to ``benchmarks/results/BENCH_decode.json`` —
the perf-trajectory artifact whose series shows how decode throughput moves
across commits.  Samples carry a ``label``: the committed series starts
with the pre-optimisation ``baseline`` sample, followed by ``default``
(bit-identical hot path) and ``fast_math`` (opt-in fused GEMMs) samples
from the optimised tree.  A ``prefill_long`` sample records the wall
ms/ktok of one long-prompt prefill at each of ``PREFILL_LENGTHS`` tokens —
the quadratic attention layer, which the decode mix never exercises.

Environment knobs:

- ``REPRO_BENCH_DECODE_REQUESTS``: request count (default 8).
- ``REPRO_BENCH_DECODE_TOKENS``: max new tokens per request (default 32).
- ``REPRO_BENCH_DECODE_REPEATS``: serve the mix this many times and record
  the fastest run (default 3).  Best-of-k is the ``timeit`` methodology:
  CPU frequency scaling swings single-run wall time by tens of percent,
  and the minimum is the observation least polluted by it.
- ``REPRO_BENCH_DECODE_LABEL``: label recorded on the appended sample
  (default ``default``).
- ``REPRO_BENCH_GUARD``: when ``1``, compare the fresh default-mode
  tokens/s against the last committed sample with the same label — warn
  on a >10% drop, fail the test on a >25% drop.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks._guard import (
    append_sample,
    guard_enabled,
    guard_metric,
    load_series,
)
from benchmarks.conftest import RESULTS_DIR
from repro.core.config import CocktailConfig
from repro.datasets.generator import SampleGenerator
from repro.evaluation.efficiency import SERVING_SAMPLE_SPEC
from repro.evaluation.setup import build_model, build_tokenizer, shared_vocabulary
from repro.kvpool import BlockPool
from repro.profiling import StepProfiler
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

N_REQUESTS = int(os.environ.get("REPRO_BENCH_DECODE_REQUESTS", 8))
N_TOKENS = int(os.environ.get("REPRO_BENCH_DECODE_TOKENS", 32))
N_REPEATS = int(os.environ.get("REPRO_BENCH_DECODE_REPEATS", 3))
METHODS = ("dense", "cocktail", "fp16", "atom")
MODEL_NAME = "llama2-7b"
MAX_RUNNING = 4

TRAJECTORY = "BENCH_decode.json"
#: Prompt lengths of the long-prompt prefill point (tokens).
PREFILL_LENGTHS = (2048, 3072)


def _run_decode(*, fast_math: bool = False, seed: int = 0) -> dict:
    """Serve the request mix ``N_REPEATS`` times; return the fastest run."""
    best: dict | None = None
    for _ in range(max(1, N_REPEATS)):
        metrics = _serve_once(fast_math=fast_math, seed=seed)
        if best is None or metrics["tokens_per_second"] > best["tokens_per_second"]:
            best = metrics
    best["repeats"] = max(1, N_REPEATS)
    return best


def _serve_once(*, fast_math: bool = False, seed: int = 0) -> dict:
    """Serve the request mix once; return throughput + phase metrics."""
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model(MODEL_NAME, tokenizer, seed=seed)
    samples = SampleGenerator(vocab, SERVING_SAMPLE_SPEC, seed=seed).generate_many(
        N_REQUESTS
    )
    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        seed=seed,
        max_running=MAX_RUNNING,
        prefix_caching=False,  # cold serve: the clock measures the hot path
        fast_math=fast_math,
    )
    profiler = StepProfiler(engine)
    with profiler:
        results = engine.run_batch(
            [
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=N_TOKENS,
                    backend=METHODS[i % len(METHODS)],
                    # Decode through special tokens so every request emits
                    # the full budget — the clock wants steady-state decode,
                    # not the workload's early-stop behaviour.
                    stop_on_special=False,
                )
                for i, sample in enumerate(samples)
            ]
        )
    stats = engine.exec_stats
    total = profiler.total_seconds
    metrics = {
        "n_requests": N_REQUESTS,
        "max_new_tokens": N_TOKENS,
        "fast_math": fast_math,
        "n_decode_tokens": stats.n_decode_tokens,
        "n_steps": profiler.n_steps,
        "tokens_per_second": stats.n_decode_tokens / total if total else 0.0,
        "step_ms_p50": profiler.step_percentile(0.50) * 1e3,
        "step_ms_p95": profiler.step_percentile(0.95) * 1e3,
        "forwards_per_token": stats.forwards_per_token,
        "mean_batch_occupancy": stats.mean_batch_occupancy,
        "phase_seconds": dict(profiler.phase_times),
        "phase_fraction": profiler.phase_breakdown(),
    }
    metrics["_profile_table"] = profiler.profile_table()
    metrics["_greedy_tokens"] = [r.token_ids for r in results]
    return metrics


def test_bench_decode(results_dir):
    label = os.environ.get("REPRO_BENCH_DECODE_LABEL", "default")
    prior = load_series(RESULTS_DIR / TRAJECTORY)
    metrics = _run_decode(fast_math=False)

    print("\n" + metrics["_profile_table"])
    print(
        f"{label}: {metrics['tokens_per_second']:.0f} tok/s, "
        f"step p50 {metrics['step_ms_p50']:.2f} ms / "
        f"p95 {metrics['step_ms_p95']:.2f} ms, "
        f"{metrics['n_decode_tokens']} tokens in {metrics['n_steps']} steps"
    )

    append_sample(
        RESULTS_DIR / TRAJECTORY, benchmark="decode", label=label, metrics=metrics
    )

    assert metrics["n_decode_tokens"] > 0
    assert metrics["tokens_per_second"] > 0
    assert metrics["mean_batch_occupancy"] > 1.5
    # The exclusive span accounting covers the whole stepped wall time, so
    # the recorded phases must add back up to it (bookkeeping absorbs the
    # rest) and the named compute phases must actually have fired.
    phase_total = sum(metrics["phase_seconds"].values())
    step_total = metrics["n_decode_tokens"] / metrics["tokens_per_second"]
    assert abs(phase_total - step_total) < 0.05 * step_total + 1e-6
    for phase in ("schedule", "bookkeeping"):
        assert metrics["phase_seconds"].get(phase, 0.0) > 0.0

    if guard_enabled():
        guard_metric(
            prior,
            label=label,
            metric="tokens_per_second",
            fresh=metrics["tokens_per_second"],
            what="decode tokens/s",
        )


def test_bench_decode_fast_math(results_dir):
    """Opt-in fused-GEMM mode: same tokens as default, recorded separately."""
    default = _run_decode(fast_math=False)
    fused = _run_decode(fast_math=True)

    print(
        f"\nfast_math: {fused['tokens_per_second']:.0f} tok/s "
        f"(default {default['tokens_per_second']:.0f}), "
        f"step p50 {fused['step_ms_p50']:.2f} ms"
    )
    append_sample(
        RESULTS_DIR / TRAJECTORY, benchmark="decode", label="fast_math", metrics=fused
    )

    # fast_math trades bit-identity of the logits for stacked GEMMs but must
    # keep the greedy decode itself unchanged on the benchmark workload.
    assert fused["_greedy_tokens"] == default["_greedy_tokens"]
    assert fused["n_decode_tokens"] == default["n_decode_tokens"]


def test_bench_prefill_long(results_dir):
    """Long-prompt prefill wall time: trend data under its own label, no gate."""
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model(MODEL_NAME, tokenizer)
    config = model.config
    rng = np.random.default_rng(0)
    metrics = {"repeats": max(1, N_REPEATS)}
    for n_tokens in PREFILL_LENGTHS:
        prompt = rng.integers(0, tokenizer.vocab_size, n_tokens).tolist()
        best = float("inf")
        for _ in range(max(1, N_REPEATS)):
            pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim)
            cache = model.new_cache(n_tokens, pool=pool)
            start = time.perf_counter()
            model.prefill(prompt, cache)
            best = min(best, time.perf_counter() - start)
        metrics[f"prefill_ms_per_ktok_{n_tokens}"] = best * 1e6 / n_tokens

    print(
        "\nprefill_long: "
        + ", ".join(
            f"{n} tok {metrics[f'prefill_ms_per_ktok_{n}']:.0f} ms/ktok"
            for n in PREFILL_LENGTHS
        )
    )
    append_sample(
        RESULTS_DIR / TRAJECTORY, benchmark="decode", label="prefill_long", metrics=metrics
    )
    assert all(metrics[f"prefill_ms_per_ktok_{n}"] > 0 for n in PREFILL_LENGTHS)
