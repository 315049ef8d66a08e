"""Tests for the inference engine: streaming, continuous batching, stats.

The acceptance bar: N >= 8 concurrent requests served via continuous
batching produce outputs byte-identical to sequential
``CocktailPipeline.run()`` for both the dense and blockwise backends, and
``stream()`` yields tokens incrementally.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import CocktailConfig
from repro.core.pipeline import CocktailPipeline
from repro.model.decode import STOP_REASONS
from repro.serving.backends import PreparedSequence
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest, SamplingParams
from repro.serving.scheduler import ContinuousBatchingScheduler, SequenceState

CHUNK_SIZE = 16
MODES = ("dense", "blockwise")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


@pytest.fixture(scope="module")
def sequential(vocab, tokenizer, retrieval_model):
    """Sequential single-request reference outputs from the pipeline."""
    pipeline = CocktailPipeline(
        retrieval_model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
    )

    def run(sample, mode: str, max_new_tokens: int = 8):
        return pipeline.run(
            sample.context_words,
            sample.query_words,
            max_new_tokens=max_new_tokens,
            mode=mode,
        )

    return run


class TestContinuousBatching:
    def test_eight_concurrent_requests_match_sequential(
        self, vocab, tokenizer, retrieval_model, tiny_samples, sequential
    ):
        """Both backends, 8 requests in flight at once, byte-identical output."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=8)
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=8,
                backend=mode,
            )
            for sample in tiny_samples
            for mode in MODES
        ]
        assert len(requests) == 8
        rids = [engine.submit(request) for request in requests]
        assert engine.n_waiting == 8 and engine.n_running == 0

        first_step = engine.step()
        # All eight prompts were admitted and every sequence advanced by
        # exactly one token in the same engine step: continuous batching.
        assert engine.n_running == 8
        token_events = [e for e in first_step if e.token_id is not None]
        assert sorted(e.request_id for e in token_events) == sorted(rids)
        assert all(e.is_first for e in token_events)

        while engine.has_pending:
            engine.step()
        results = [engine.result(rid) for rid in rids]

        for i, (request, result) in enumerate(zip(requests, results)):
            sample = tiny_samples[i // len(MODES)]
            reference = sequential(sample, request.backend)
            assert result.token_ids == reference.generated_ids
            assert result.answer_text == reference.answer_text
            assert result.stopped_by == reference.stopped_by
            assert result.n_prompt_tokens == reference.n_prompt_tokens

    def test_run_batch_returns_results_in_submission_order(
        self, vocab, tokenizer, retrieval_model, tiny_samples, sequential
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=4)
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=6,
                backend="dense",
            )
            for sample in tiny_samples[:3]
        ]
        results = engine.run_batch(requests)
        for sample, request, result in zip(tiny_samples, requests, results):
            assert result.request_id == request.request_id
            reference = sequential(sample, "dense", max_new_tokens=6)
            assert result.token_ids == reference.generated_ids

    def test_mixed_lengths_fifo_and_monotonic_stats(
        self, vocab, tokenizer, retrieval_model, tiny_samples, sequential
    ):
        """Queued mixed-budget requests all complete with sequential outputs,
        FIFO admission order and monotonic per-request timing stats."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=2)
        budgets = [1, 8, 3, 8, 2, 6]
        requests = [
            GenerationRequest(
                tiny_samples[i % len(tiny_samples)].context_words,
                tiny_samples[i % len(tiny_samples)].query_words,
                max_new_tokens=budget,
                backend=MODES[i % len(MODES)],
            )
            for i, budget in enumerate(budgets)
        ]
        results = engine.run_batch(requests)

        for i, (request, result) in enumerate(zip(requests, results)):
            sample = tiny_samples[i % len(tiny_samples)]
            reference = sequential(sample, request.backend, max_new_tokens=budgets[i])
            assert result.token_ids == reference.generated_ids
            assert result.stopped_by == reference.stopped_by

            stats = result.stats
            assert stats.submitted_at <= stats.scheduled_at
            assert stats.scheduled_at <= stats.first_token_at
            assert stats.first_token_at <= stats.finished_at
            assert stats.queue_seconds >= 0.0
            assert stats.ttft_seconds >= stats.queue_seconds
            assert stats.tpot_seconds >= 0.0
            assert stats.n_generated == len(result.token_ids)
            assert stats.n_decode_steps >= stats.n_generated

        # FIFO admission: scheduling times follow submission order.
        scheduled = [result.stats.scheduled_at for result in results]
        assert scheduled == sorted(scheduled)

    def test_preemption_recomputes_without_duplicate_tokens(
        self, vocab, tokenizer, retrieval_model, tiny_samples, sequential
    ):
        """Outgrowing the KV budget preempts the newest sequence; recompute
        replays its prefix silently and the final output is unchanged."""
        first, second = tiny_samples[0], tiny_samples[1]
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=8,
                backend="dense",
            )
            for sample in (first, second)
        ]
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=2,
            max_live_tokens=budget,
        )
        rids = [engine.submit(request) for request in requests]
        events = []
        while engine.has_pending:
            events.extend(engine.step())
        results = [engine.result(rid) for rid in rids]

        assert results[0].stats.n_preemptions == 0
        assert results[1].stats.n_preemptions >= 1
        for sample, result in zip((first, second), results):
            reference = sequential(sample, "dense")
            assert result.token_ids == reference.generated_ids

        # The preempted request's stream has no duplicated or reordered tokens.
        second_tokens = [
            e for e in events if e.request_id == rids[1] and e.token_id is not None
        ]
        assert [e.index for e in second_tokens] == list(range(len(second_tokens)))
        assert [e.token_id for e in second_tokens] == results[1].token_ids
        # Recompute work is visible in the step counter.
        assert results[1].stats.n_decode_steps > results[1].stats.n_generated


class TestStreaming:
    @pytest.mark.parametrize("mode", MODES)
    def test_stream_yields_tokens_incrementally_and_matches_run(
        self, vocab, tokenizer, retrieval_model, tiny_samples, sequential, mode
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        sample = tiny_samples[0]
        reference = sequential(sample, mode)
        assert len(reference.generated_ids) >= 2  # incrementality needs >1 token

        request = GenerationRequest(
            sample.context_words, sample.query_words, max_new_tokens=8, backend=mode
        )
        stream = engine.stream(request)
        head = next(stream)
        # The first token arrives while the request is still decoding.
        assert head.is_first and head.index == 0 and not head.is_last
        assert head.token_id == reference.generated_ids[0]
        assert not engine.is_finished(request.request_id)

        events = [head] + list(stream)
        tokens = [e.token_id for e in events if e.token_id is not None]
        assert tokens == reference.generated_ids

        terminal = events[-1]
        assert terminal.is_last and terminal.end_of_stream
        assert terminal.stopped_by == reference.stopped_by
        assert terminal.stopped_by in STOP_REASONS
        assert terminal.index == len(tokens)

        result = engine.result(request.request_id)
        assert result.answer_text == reference.answer_text
        assert [tokenizer.decode([t]) for t in tokens] == [
            e.text for e in events if e.token_id is not None
        ]

    def test_sampled_requests_replay_deterministically(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        sample = tiny_samples[3]
        sampling = SamplingParams(top_k=3, temperature=0.8, seed=11)
        outputs = []
        for _ in range(2):
            engine = make_engine(vocab, tokenizer, retrieval_model)
            result = engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend="dense",
                    sampling=sampling,
                )
            )
            outputs.append(result.token_ids)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("batched", [True, False], ids=["fused", "sequential"])
    def test_first_token_is_stamped_after_the_forward_of_its_step(
        self, vocab, tokenizer, retrieval_model, tiny_samples, monkeypatch, batched
    ):
        """Clients see a step's first token only after the round's decode
        forward; the engine's TTFT stamp must not read earlier, on either
        decode path."""
        ticks = itertools.count()

        def clock() -> float:
            return float(next(ticks))

        forward_ends = []
        for name in ("decode_step", "decode_step_batch"):
            forward = getattr(retrieval_model, name)

            def timed(*args, _forward=forward, **kwargs):
                out = _forward(*args, **kwargs)
                forward_ends.append(clock())
                return out

            monkeypatch.setattr(retrieval_model, name, timed)
        engine = make_engine(
            vocab, tokenizer, retrieval_model, clock=clock, batched_decode=batched
        )
        sample = tiny_samples[0]
        request_id = engine.submit(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=4
            )
        )
        events = engine.step()
        assert [e.index for e in events if e.token_id is not None] == [0]
        assert forward_ends, "the step ran no decode forward"
        assert engine.request_stats(request_id).first_token_at > forward_ends[-1]


class TestValidationAndLifecycle:
    def test_zero_budget_rejected_everywhere(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        sample = tiny_samples[0]
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenerationRequest(sample.context_words, sample.query_words, max_new_tokens=0)
        pipeline = CocktailPipeline(
            retrieval_model,
            tokenizer,
            CocktailConfig(chunk_size=CHUNK_SIZE),
            lexicon=vocab.lexicon,
        )
        for mode in MODES:
            with pytest.raises(ValueError, match="max_new_tokens"):
                pipeline.run(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=0,
                    mode=mode,
                )

    def test_unknown_backend_fails_at_submit(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        sample = tiny_samples[0]
        with pytest.raises(KeyError, match="unknown decode backend"):
            engine.submit(
                GenerationRequest(
                    sample.context_words, sample.query_words, backend="fused"
                )
            )
        assert not engine.has_pending

    def test_duplicate_request_id_rejected(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        sample = tiny_samples[0]
        request = GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=2,
            request_id="dup",
        )
        engine.submit(request)
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=2,
                    request_id="dup",
                )
            )

    def test_result_lifecycle_errors(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        sample = tiny_samples[0]
        with pytest.raises(KeyError, match="unknown request_id"):
            engine.result("nope")
        rid = engine.submit(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=2
            )
        )
        with pytest.raises(RuntimeError, match="not finished"):
            engine.result(rid)
        while engine.has_pending:
            engine.step()
        assert engine.result(rid).request_id == rid
        # pop=True releases the stored result; a second lookup is an error.
        assert engine.result(rid, pop=True).request_id == rid
        with pytest.raises(KeyError, match="unknown request_id"):
            engine.result(rid)

    def test_sampling_params_validation(self):
        with pytest.raises(ValueError, match="top_k"):
            SamplingParams(top_k=0)
        with pytest.raises(ValueError, match="temperature"):
            SamplingParams(temperature=0.0)
        assert SamplingParams().is_greedy
        assert not SamplingParams(top_k=2).is_greedy


class TestSchedulerUnit:
    """Pure scheduler-policy tests (no model involved)."""

    @staticmethod
    def make_state(prompt_len: int, budget: int = 4) -> SequenceState:
        request = GenerationRequest(
            ["w"] * (prompt_len - 2), ["q"], max_new_tokens=budget
        )
        return SequenceState(request=request)

    @staticmethod
    def attach(state: SequenceState, live: int) -> None:
        state.prepared = PreparedSequence(
            session=None,
            plan=None,
            n_prompt_tokens=state.request.n_prompt_tokens,
            n_context_tokens=len(state.request.context_words),
            live_tokens=lambda: live,
        )

    def test_slot_limit_gates_admission(self):
        scheduler = ContinuousBatchingScheduler(max_running=1)
        a, b = self.make_state(10), self.make_state(10)
        scheduler.enqueue(a)
        scheduler.enqueue(b)
        assert scheduler.next_to_admit() is a
        scheduler.mark_running(a)
        assert scheduler.next_to_admit() is None  # slot limit reached

    def test_token_budget_gates_admission_but_never_starves_head(self):
        scheduler = ContinuousBatchingScheduler(max_running=4, max_live_tokens=25)
        big = self.make_state(40)
        scheduler.enqueue(big)
        # A request larger than the whole budget still starts when alone.
        assert scheduler.next_to_admit() is big
        scheduler.mark_running(big)
        self.attach(big, live=40)
        small = self.make_state(10)
        scheduler.enqueue(small)
        assert scheduler.next_to_admit() is None  # 40 + 11 > 25
        assert scheduler.over_budget()

    def test_preemption_is_lifo_and_spares_the_oldest(self):
        scheduler = ContinuousBatchingScheduler(max_running=4, max_live_tokens=30)
        states = [self.make_state(10) for _ in range(3)]
        for state in states:
            scheduler.enqueue(state)
            scheduler.mark_running(state)
            self.attach(state, live=12)
        assert scheduler.over_budget()
        victim = scheduler.pop_preemption_victim()
        assert victim is states[-1]
        scheduler.requeue_front(victim)
        assert scheduler.waiting[0] is victim  # retains FIFO priority
        # The sole survivor is never preempted.
        scheduler.remove(states[1])
        assert scheduler.pop_preemption_victim() is None

    def test_mark_running_requires_queue_head(self):
        scheduler = ContinuousBatchingScheduler()
        a, b = self.make_state(10), self.make_state(10)
        scheduler.enqueue(a)
        scheduler.enqueue(b)
        with pytest.raises(ValueError, match="head"):
            scheduler.mark_running(b)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_running"):
            ContinuousBatchingScheduler(max_running=0)
        with pytest.raises(ValueError, match="max_live_tokens"):
            ContinuousBatchingScheduler(max_live_tokens=0)
