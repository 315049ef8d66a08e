"""Host loops that drive the serving stack and stamp every token.

All stamps come from the benchmark's own clock (seconds since the window
opened), never from the engine's request stats.  Each loop returns
``(origin, wall)``: the clock reading that opened the window and the
seconds until the last request ended.

* :func:`run_open_loop` — in-process; each job is submitted when it falls
  due, and the engine is stepped whenever it has work.
* :func:`run_offline_batches` — in-process; each batch is submitted at
  once and drained before the next one opens.
* :func:`run_http_closed_loop` — clients on one asyncio loop beside the
  HTTP/SSE server; each client sends its next turn when the previous
  stream ends.

Every loop serves all of its inputs: the amount of work is fixed by the
inputs, and the window lasts until the last request ends.
"""

from __future__ import annotations

import asyncio
import time

from repro.serving.server.client import CompletionStream


class HostFailure(RuntimeError):
    """The engine raised out of a step; every in-flight job failed with it."""


def _record(job, event, now: float) -> bool:
    """Apply one token event to its job; True when the stream ended."""
    if event.token_id is not None:
        job.token_ids.append(int(event.token_id))
        job.token_times.append(now)
    if event.is_last:
        job.stopped_by = event.stopped_by
        job.done_at = now
        return True
    return False


def _step(engine, live: dict, clock, t0: float) -> None:
    try:
        events = engine.step()
    except Exception as exc:  # noqa: BLE001 — reported as failed requests
        for job in live.values():
            job.error = f"engine step failed: {exc!r}"
        live.clear()
        raise HostFailure(str(exc)) from exc
    now = clock() - t0
    for event in events:
        job = live.get(event.request_id)
        if job is not None and _record(job, event, now):
            result = engine.result(event.request_id, pop=True)
            job.engine_ttft = result.stats.ttft_seconds
            del live[event.request_id]


def _submit(engine, job, live: dict, now: float) -> None:
    job.sent = now
    live[job.request_id] = job
    engine.submit(job.to_request())


def run_open_loop(engine, jobs, clock=time.perf_counter) -> tuple[float, float]:
    """Submit each job at its due time; returns ``(origin, wall seconds)``."""
    pending = sorted(jobs, key=lambda job: job.due)
    live: dict = {}
    t0 = clock()
    position = 0
    while position < len(pending) or engine.has_pending:
        now = clock() - t0
        while position < len(pending) and pending[position].due <= now:
            _submit(engine, pending[position], live, clock() - t0)
            position += 1
        if engine.has_runnable:
            _step(engine, live, clock, t0)
        elif position < len(pending):
            time.sleep(max(0.0, pending[position].due - (clock() - t0)))
    return t0, clock() - t0


def run_offline_batches(engine, batches, clock=time.perf_counter) -> tuple[float, float]:
    """Offline batches back to back; returns ``(origin, wall seconds)``."""
    live: dict = {}
    t0 = clock()
    for batch in batches:
        start = clock() - t0
        for job in batch:
            job.due = start
            _submit(engine, job, live, clock() - t0)
        while engine.has_pending:
            _step(engine, live, clock, t0)
    return t0, clock() - t0


async def _stream_turn(host: str, port: int, job, clock, t0: float) -> None:
    job.sent = job.due = clock() - t0
    try:
        stream = await CompletionStream.open(host, port, job.to_wire())
    except (ConnectionError, OSError) as exc:
        job.error = f"connect failed: {exc!r}"
        return
    try:
        job.head_at = clock() - t0
        if stream.status != 200:
            job.error = f"HTTP {stream.status}: {stream.error}"
            return
        async for chunk in stream.chunks():
            now = clock() - t0
            if "error" in chunk:
                job.error = str(chunk["error"])
                continue
            job.server_id = chunk.get("id", job.server_id)
            choice = chunk["choices"][0]
            if choice.get("finish_reason") is None:
                job.token_ids.append(int(choice["token_id"]))
                job.token_times.append(now)
            else:
                job.stopped_by = choice["finish_reason"]
                job.engine_ttft = chunk.get("stats", {}).get("ttft_seconds")
        if job.stopped_by is None and job.error is None:
            job.error = "stream ended without a finish_reason"
    except (ConnectionError, OSError, ValueError) as exc:
        job.error = f"stream failed: {exc!r}"
    finally:
        await stream.close()
        job.done_at = clock() - t0


async def run_http_closed_loop(server, queues, clock=time.perf_counter) -> tuple[float, float]:
    """One task per client; a client sends its turns back to back."""
    host, port = server.address
    t0 = clock()

    async def client(queue) -> None:
        for job in queue:
            await _stream_turn(host, port, job, clock, t0)

    tasks = [asyncio.create_task(client(queue)) for queue in queues]
    for task in tasks:
        await task
    return t0, clock() - t0
