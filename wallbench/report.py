"""End-to-end and per-layer metrics computed from one run's records."""

from __future__ import annotations

import math
import os
import platform
import statistics
from collections import defaultdict

import numpy as np

from repro.metrics.registry import compute_metric

from wallbench.spans import END, NAME, PARENT, RID, SIZE, START

MS = 1000.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (p50 floor)."""
    if n <= 20:
        return 50
    return min(99, int(math.floor(100.0 * (n - 10) / n)))


def pct(values, q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fingerprint() -> dict:
    """The machine class a result was measured on."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        lapack = deps.get("blas", {})
        blas = f"{lapack.get('name', '?')} {lapack.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


# -- end to end ------------------------------------------------------------------


def job_latencies(job) -> dict:
    """TTFT, mean TPOT and inter-token gaps (seconds) of one completed job."""
    times = job.token_times
    out = {"ttft": times[0] - job.due if times else None, "tpot": None, "gaps": []}
    if len(times) >= 2:
        out["tpot"] = (times[-1] - times[0]) / (len(times) - 1)
        out["gaps"] = list(np.diff(times))
    return out


def answer_score(jobs, decode) -> float:
    """Macro mean over datasets of each dataset's own metric; failures score 0."""
    per_dataset = defaultdict(list)
    for job in jobs:
        score = 0.0
        if job.completed:
            score = compute_metric(job.metric, decode(job.token_ids), job.answer)
        per_dataset[job.dataset].append(score)
    return float(np.mean([np.mean(v) for v in per_dataset.values()])) if per_dataset else 0.0


def end_to_end(
    jobs, wall: float, setup_times, peak_bytes: int, slo: dict, decode
) -> tuple[dict, dict]:
    """``(metrics, notes)``; metrics are ``name -> (value, unit)``."""
    done = [job for job in jobs if job.completed]
    lat = [job_latencies(job) for job in done]
    ttft = [x["ttft"] for x in lat if x["ttft"] is not None]
    tpot = [x["tpot"] for x in lat if x["tpot"] is not None]
    gaps = [g for x in lat for g in x["gaps"]]
    p_ttft, p_tpot = tail_percentile(len(ttft)), tail_percentile(len(tpot))
    n_tokens = sum(len(job.token_ids) for job in done)
    met = 0
    for x in lat:
        if x["ttft"] is not None and x["ttft"] * MS <= slo["ttft_ms"] and (
            x["tpot"] is None or x["tpot"] * MS <= slo["tpot_ms"]
        ):
            met += 1
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ttft_p50_ms": (pct(ttft, 50) * MS, "ms"),
        "ttft_tail_ms": (pct(ttft, p_ttft) * MS, "ms"),
        "tpot_p50_ms": (pct(tpot, 50) * MS, "ms"),
        "tpot_tail_ms": (pct(tpot, p_tpot) * MS, "ms"),
        "itl_p50_ms": (pct(gaps, 50) * MS, "ms"),
        "itl_p99_ms": (pct(gaps, 99) * MS, "ms"),
        "output_tok_s": (n_tokens / wall, "tok/s"),
        "req_s": (len(done) / wall, "req/s"),
        "slo_attain": (met / max(len(jobs), 1), "fraction"),
        "kv_peak_mib": (peak_bytes / 2**20, "MiB"),
        "answer_score": (answer_score(jobs, decode), "score"),
    }
    notes = {
        "ttft_tail_percentile": p_ttft,
        "tpot_tail_percentile": p_tpot,
        "n_ttft": len(ttft),
        "n_tpot": len(tpot),
        "n_gaps": len(gaps),
        "setup_s_samples": list(setup_times),
        "wall_s": wall,
        "slo": slo,
    }
    return metrics, notes


# -- per layer -------------------------------------------------------------------


class SpanIndex:
    """Spans of every thread, with inclusive and self durations."""

    def __init__(self, threads):
        self.rows = []  # (thread, name, start, end, parent global index, rid, size)
        for label, spans in threads:
            base = len(self.rows)
            for record in spans:
                parent = record[PARENT]
                self.rows.append((label, record[NAME], record[START], record[END],
                                  base + parent if parent >= 0 else -1, record[RID], record[SIZE]))
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for index, row in enumerate(self.rows):
            self.by_name[row[1]].append(index)
            if row[4] >= 0:
                self.children[row[4]].append(index)
        self._outermost: dict[str, list[int]] = {}

    def duration(self, i: int) -> float:
        return self.rows[i][3] - self.rows[i][2]

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def outermost(self, name: str) -> list[int]:
        """Spans named ``name`` not nested inside another span of that name."""
        if name not in self._outermost:
            self._outermost[name] = [
                i for i in self.by_name.get(name, ()) if not self.has_ancestor(i, name)
            ]
        return self._outermost[name]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.outermost(name))

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.rows[i][4]
        while parent >= 0:
            if self.rows[parent][1] == name:
                return True
            parent = self.rows[parent][4]
        return False

    def size(self, name: str) -> int:
        return sum(self.rows[i][6] for i in self.outermost(name))

    def ms_per_call(self, name: str) -> float:
        return _ratio(self.total(name), len(self.outermost(name)), MS)

    def ms_per_ktok(self, name: str) -> float:
        return _ratio(self.total(name), self.size(name), 1e6)

    def rid_of(self, i: int):
        while i >= 0:
            if self.rows[i][5] is not None:
                return self.rows[i][5]
            i = self.rows[i][4]
        return None

    def has_descendant(self, i: int, name: str) -> bool:
        todo = list(self.children[i])
        while todo:
            j = todo.pop()
            if self.rows[j][1] == name:
                return True
            todo.extend(self.children[j])
        return False

    def self_time_balance(self) -> list[tuple[str, float, float]]:
        """Per root span: (name, duration, summed self times of its subtree)."""
        out = []
        for i, row in enumerate(self.rows):
            if row[4] >= 0:
                continue
            total, todo = 0.0, [i]
            while todo:
                j = todo.pop()
                total += self.self_time(j)
                todo.extend(self.children[j])
            out.append((row[1], self.duration(i), total))
        return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def per_layer(index: SpanIndex, jobs, results: dict, origin: float, wall: float, engine,
              n_layers: int, span_cost: float) -> tuple[dict, dict]:
    """``(metrics, diagnostics)``; metrics are ``name -> (value, unit)``."""
    rows = index.rows
    done = [job for job in jobs if job.completed]

    # -- host ("server") layer: client-seen vs engine-stamped --
    overhead = [
        (job.token_times[0] - job.sent - job.engine_ttft) * MS
        for job in done if job.token_times and job.engine_ttft is not None
    ]
    # Accepting a request: send -> response head over HTTP; the submit call in-process.
    submit = [(job.head_at - job.sent) * MS for job in jobs if job.head_at is not None]
    if not submit:
        submit = [index.duration(i) * MS for i in index.outermost("engine.submit")]
    step_spans = index.outermost("engine.step")
    ends = np.sort(np.array([rows[i][3] for i in step_spans], dtype=np.float64))
    tokens = origin + np.array([t for job in done for t in job.token_times], dtype=np.float64)
    wire = []
    if len(ends) and len(tokens):
        k = np.searchsorted(ends, tokens, side="right") - 1
        wire = list((tokens[k >= 0] - ends[k[k >= 0]]) * MS)

    # -- engine / scheduler --
    step_ms = [index.duration(i) * MS for i in step_spans]
    prefill_steps = [index.duration(i) * MS for i in step_spans
                     if index.has_descendant(i, "backend.prepare")]
    prepare = index.outermost("backend.prepare")
    first_prepare = {}
    for i in prepare:
        rid = rows[i][5]
        first_prepare[rid] = min(first_prepare.get(rid, math.inf), rows[i][2])
    submitted = {}
    for name in ("server.submit", "engine.submit"):
        for i in index.outermost(name):
            rid = rows[i][5]
            submitted[rid] = min(submitted.get(rid, math.inf), rows[i][2])
    queue_wait = [(first_prepare[r] - submitted[r]) * MS for r in first_prepare
                  if r in submitted]
    batch_rows = index.size("model.decode_batch")
    seq_rows = index.size("model.decode_seq")
    blockwise_calls = len(index.outermost("core.blockwise_attend"))
    blockwise_rows = blockwise_calls / max(n_layers, 1)
    n_forwards = len(index.outermost("model.decode_batch")) + seq_rows + blockwise_rows
    decode_rows = batch_rows + seq_rows + blockwise_rows
    summaries = list(results.values())
    n_tokens = sum(len(job.token_ids) for job in jobs)

    # -- backend self time --
    prepare_self = [index.self_time(i) * MS for i in prepare]

    # -- kvpool (gathers outside admission are the decode path's reads) --
    decode_gather = sum(index.duration(i) for i in index.outermost("kvpool.gather")
                        if not index.has_ancestor(i, "backend.prepare"))
    ctx_bytes = [s["context_bytes"] / s["n_context"] for s in summaries
                 if s["context_bytes"] and s["n_context"]]
    n_context = sum(s["n_context"] for s in summaries)
    cached = sum(s["cached_tokens"] for s in summaries)
    bits = [s["bits_mean"] for s in summaries if s["bits_mean"] is not None]

    lag = _generator_lag(jobs)
    root = _root_duration(index, "harness.run") or wall
    metrics = {
        "server.overhead_ms": (pct(overhead, 50), "ms"),
        "server.submit_ms": (pct(submit, 50), "ms"),
        "server.wire_ms": (pct(wire, 50), "ms"),
        "engine.queue_wait_ms_p50": (pct(queue_wait, 50), "ms"),
        "engine.prefill_step_ms_p50": (pct(prefill_steps, 50), "ms"),
        "engine.batch_rows_mean": (_ratio(decode_rows, n_forwards), "rows"),
        "engine.forwards_per_token": (_ratio(n_forwards, n_tokens), "ratio"),
        "engine.step_ms_p50": (pct(step_ms, 50), "ms"),
        "engine.busy_frac": (_ratio(sum(step_ms) / MS, root), "fraction"),
        "engine.preemptions": (sum(s["n_preemptions"] for s in summaries), "count"),
        "backend.prepare_ms_p50": (pct(prepare_self, 50), "ms"),
        "core.search_ms": (index.ms_per_call("core.search"), "ms"),
        "core.bits_mean": (float(np.mean(bits)) if bits else 0.0, "bits"),
        "retrieval.similarity_ms": (index.ms_per_call("retrieval.similarity"), "ms"),
        "quant.encode_ms_per_ktok": (index.ms_per_ktok("quant.encode"), "ms/ktok"),
        "quant.plan_ms": (index.ms_per_call("quant.plan"), "ms"),
        "kvpool.pack_ms_per_ktok": (index.ms_per_ktok("kvpool.pack"), "ms/ktok"),
        "kvpool.gather_ms_per_row": (_ratio(decode_gather, decode_rows, MS), "ms"),
        "kvpool.bytes_per_ctx_token": (float(np.mean(ctx_bytes)) if ctx_bytes else 0.0, "B"),
        "kvpool.peak_blocks": (engine.pool.peak_allocated_blocks, "count"),
        "kvpool.swap_outs": (sum(s["n_swap_outs"] for s in summaries), "count"),
        "kvpool.prefix_hit_frac": (_ratio(cached, n_context), "fraction"),
        "model.prefill_ms_per_ktok": (index.ms_per_ktok("model.prefill"), "ms/ktok"),
        "model.prefill_tokens": (index.size("model.prefill"), "count"),
        "model.decode_batch_ms_per_row": (
            _ratio(index.total("model.decode_batch"), batch_rows, MS), "ms"),
        "model.decode_seq_rows": (seq_rows, "count"),
        "gen.lag_p99_ms": (pct(lag, 99), "ms"),
        "trace.overhead_frac": (_ratio(len(rows) * span_cost, root), "fraction"),
    }
    diagnostics = {
        "core.blockwise_attend_ms_per_row": (
            _ratio(index.total("core.blockwise_attend"), blockwise_rows, MS)
            if blockwise_rows else None),
        "n_spans": len(rows),
        "span_cost_us": span_cost * 1e6,
        "decode_rows": decode_rows,
        "ttft_breakdown": _ttft_breakdown(index, prepare),
        "ttft_own_admission_share": _own_admission_share(index, done),
        "decode_vs_prefill_s": {
            "decode_forwards": index.total("model.decode_batch") + index.total("model.decode_seq")
            + index.total("core.blockwise_attend"),
            "prefill": index.total("model.prefill"),
        },
        "self_time_balance": index.self_time_balance(),
        "samples": {"overhead": len(overhead), "submit": len(submit), "wire": len(wire),
                    "queue_wait": len(queue_wait), "prefill_steps": len(prefill_steps),
                    "steps": len(step_ms), "prepare": len(prepare), "lag": len(lag)},
    }
    return metrics, diagnostics


#: Span name -> the per-layer metric read from it, for every layer a
#: ``cocktail`` request passes through.  Every workload serves ``cocktail``.
REQUIRED_LAYERS = {
    "engine.step": "engine.step_ms_p50",
    "backend.prepare": "backend.prepare_ms_p50",
    "model.prefill": "model.prefill_ms_per_ktok",
    "core.search": "core.search_ms",
    "quant.encode": "quant.encode_ms_per_ktok",
    "kvpool.pack": "kvpool.pack_ms_per_ktok",
    "model.decode_batch": "model.decode_batch_ms_per_row",
}


def missing_layers(index: SpanIndex, jobs) -> list[str]:
    """A problem per required layer with no spans although a ``cocktail``
    request decoded: a renamed or moved entry point, not a free layer."""
    if not any(job.completed and job.backend == "cocktail" and len(job.token_ids) >= 2
               for job in jobs):
        return []
    return [f"no {name} spans recorded (metric {metric} would read 0)"
            for name, metric in REQUIRED_LAYERS.items() if not index.by_name.get(name)]


def _root_duration(index: SpanIndex, name: str):
    for i, row in enumerate(index.rows):
        if row[1] == name:
            return index.duration(i)
    return None


def _generator_lag(jobs) -> list[float]:
    """How late each request was sent: after its due time, or (closed loop)
    after the same client's previous stream ended."""
    lag = []
    last_end: dict[int, float] = {}
    for job in sorted((j for j in jobs if j.sent is not None), key=lambda j: j.sent):
        if job.due is not None and job.due != job.sent:
            lag.append((job.sent - job.due) * MS)
        elif job.client in last_end:
            lag.append((job.sent - last_end[job.client]) * MS)
        if job.done_at is not None:
            last_end[job.client] = job.done_at
    return lag


ADMISSION_LAYERS = ("model.prefill", "quant.plan", "quant.encode", "kvpool.pack")


def _own_admission_share(index: SpanIndex, done) -> float | None:
    """Share of summed TTFT spent in each request's own prefill/plan/encode/pack."""
    own: dict = defaultdict(float)
    for name in ADMISSION_LAYERS:
        for i in index.outermost(name):
            own[index.rid_of(i)] += index.duration(i)
    ttft = sum(job.token_times[0] - job.sent for job in done if job.token_times)
    work = sum(own.get(job.engine_id, 0.0) for job in done)
    return work / ttft if ttft else None


def _ttft_breakdown(index: SpanIndex, prepare) -> dict:
    """Inclusive seconds inside ``backend.prepare`` by the layers beneath it."""
    totals = dict.fromkeys(ADMISSION_LAYERS, 0.0)
    total_prepare = 0.0
    for i in prepare:
        total_prepare += index.duration(i)
        todo = list(index.children[i])
        while todo:
            j = todo.pop()
            name = index.rows[j][1]
            if name in totals:
                totals[name] += index.duration(j)
            else:
                todo.extend(index.children[j])
    totals["backend.prepare"] = total_prepare
    return totals
