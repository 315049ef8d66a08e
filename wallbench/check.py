"""Output checks: solo replays of sampled requests and pool invariants."""

from __future__ import annotations

import numpy as np


def replay_sample(jobs, k: int, seed: int) -> list:
    """A seeded sample of ``k`` completed jobs, in submission order."""
    done = [job for job in jobs if job.completed]
    if not done:
        return []
    rng = np.random.default_rng([int(seed) % 2**32, 7])
    picks = sorted(rng.choice(len(done), size=min(k, len(done)), replace=False))
    return [done[int(i)] for i in picks]


def solo_replay(engine, job) -> tuple[list[int], str | None]:
    """Token ids and stop reason of ``job`` served alone on a quiet engine."""
    request = job.to_request(request_id=f"replay-{job.index}")
    tokens: list[int] = []
    stopped_by = None
    for event in engine.stream(request):
        if event.token_id is not None:
            tokens.append(int(event.token_id))
        if event.is_last:
            stopped_by = event.stopped_by
    engine.result(request.request_id, pop=True)
    return tokens, stopped_by


def check_outputs(reference_engine, sample) -> list[str]:
    """Replay each sampled job; a mismatch marks the job failed."""
    problems = []
    for job in sample:
        tokens, stopped_by = solo_replay(reference_engine, job)
        if tokens != job.token_ids or stopped_by != job.stopped_by:
            job.error = "output differs from its solo replay"
            problems.append(
                f"job {job.index} ({job.backend}): {len(job.token_ids)} tokens/{job.stopped_by} "
                f"served vs {len(tokens)} tokens/{stopped_by} solo"
            )
    return problems


def check_engine(engine) -> list[str]:
    """Pool + prefix-index invariants after draining, and no leaked pages."""
    problems = []
    try:
        engine.assert_consistent()
    except AssertionError as exc:
        problems.append(f"assert_consistent failed: {exc}")
    if engine.has_pending:
        problems.append("engine still has pending work after the drain")
    if engine.pool is not None:
        held = engine.prefix_cache.n_blocks if engine.prefix_cache is not None else 0
        if engine.pool.n_allocated != held:
            problems.append(
                f"pool leak: {engine.pool.n_allocated} pages allocated, "
                f"{held} held by the prefix index"
            )
    return problems
