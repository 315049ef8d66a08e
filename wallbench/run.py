"""Run one benchmark workload at one seed and print its metrics.

Usage, from the repository root::

    python3 wallbench/run.py --workload longdoc --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer spans recorded and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(fingerprint, input digest, diagnostics) goes to ``.wallbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".wallbench_out"
#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def _import_stack():
    """Put the checkout's ``src/`` on the path; fail loudly if it is missing."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        print(f"wallbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        raise SystemExit(2) from exc
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        # An installed copy elsewhere would be measured instead of this checkout.
        print(f"wallbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)


def load_config() -> dict:
    return json.loads((HERE / "config.json").read_text())


# -- set-up ------------------------------------------------------------------------


@dataclass
class Stack:
    """Model, engine and (for the HTTP workload) the server of one set-up."""

    vocab: object
    tokenizer: object
    model: object
    engine: object
    server: object = None


def new_engine(model, tokenizer, vocab):
    """The engine with its defaults: what every workload serves on."""
    from repro import CocktailConfig, InferenceEngine

    return InferenceEngine(model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon)


def _substrate(model_name: str):
    from repro.datasets.longbench import build_vocabulary
    from repro.evaluation.setup import build_model, build_tokenizer

    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    return vocab, tokenizer, build_model(model_name, tokenizer)


def _warmup_requests(vocab, backends):
    from repro import GenerationRequest

    words = vocab.all_words()
    return [
        GenerationRequest(words[100:140], words[110:113], max_new_tokens=2, backend=name,
                          request_id=f"warmup-{name}")
        for name in backends
    ]


def set_up_in_process(config: dict, backends) -> Stack:
    vocab, tokenizer, model = _substrate(config["model"])
    engine = new_engine(model, tokenizer, vocab)
    for request in _warmup_requests(vocab, backends):
        engine.run(request, pop=True)
    return Stack(vocab, tokenizer, model, engine)


async def set_up_http(config: dict, backends) -> Stack:
    from repro.serving.server import ServerCore, ServingServer
    from repro.serving.server.client import stream_completion

    vocab, tokenizer, model = _substrate(config["model"])
    engine = new_engine(model, tokenizer, vocab)
    server = await ServingServer(ServerCore(engine)).start()
    host, port = server.address
    for request in _warmup_requests(vocab, backends):
        await stream_completion(host, port, {
            "context": list(request.context_words), "query": list(request.query_words),
            "backend": request.backend, "max_tokens": request.max_new_tokens,
        })
    return Stack(vocab, tokenizer, model, engine, server)


# -- one run -----------------------------------------------------------------------


@contextlib.contextmanager
def traced_window(tracer):
    """Layer spans installed for the measured window only, under one root span."""
    if tracer is None:
        yield
        return
    from wallbench.spans import install_layer_spans

    install_layer_spans(tracer)
    try:
        with tracer.span("harness.run"):
            yield
    finally:
        tracer.uninstall()


def serve(workload: str, inputs, config: dict, tracer) -> tuple:
    """Set up :data:`SETUP_REPEATS` times (timed), then serve the inputs on the last stack.

    Returns ``(stack, setup_times, origin, wall)``.
    """
    from wallbench import hosts

    backends = sorted(config["workloads"][workload]["backend_mix"])
    clock = time.perf_counter

    if workload == "agents_http":
        async def main():
            times, stack = [], None
            for _ in range(SETUP_REPEATS):
                if stack is not None:
                    await stack.server.close()
                t = clock()
                stack = await set_up_http(config, backends)
                times.append(clock() - t)
            try:
                with traced_window(tracer):
                    origin, wall = await hosts.run_http_closed_loop(stack.server, inputs.groups)
            finally:
                await stack.server.close()
            return stack, times, origin, wall

        return asyncio.run(main())

    times, stack = [], None
    for _ in range(SETUP_REPEATS):
        t = clock()
        stack = set_up_in_process(config, backends)
        times.append(clock() - t)
    try:
        with traced_window(tracer):
            if workload == "longdoc":
                origin, wall = hosts.run_open_loop(stack.engine, inputs.jobs)
            else:
                origin, wall = hosts.run_offline_batches(stack.engine, inputs.groups)
    except hosts.HostFailure as exc:
        origin, wall = math.nan, math.nan
        print(f"wallbench: engine failure: {exc}", file=sys.stderr)
    return stack, times, origin, wall


def run(workload: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    from wallbench import check, report
    from wallbench.inputs import build_inputs
    from wallbench.report import SpanIndex
    from wallbench.spans import Tracer, per_span_cost

    wl_cfg = config["workloads"][workload]
    problems: list[str] = []
    canary = config["canary"]
    canary_digest = build_inputs(workload, canary["seed"], canary["seconds"], config).digest()
    if canary_digest != canary["digests"].get(workload):
        problems.append(
            f"input generator changed: canary digest {canary_digest} != recorded "
            f"{canary['digests'].get(workload)} (results are not comparable)"
        )
    inputs = build_inputs(workload, seed, seconds, config)
    digest = inputs.digest()
    tracer = Tracer() if trace else None

    phases = {}
    mark = time.perf_counter()
    stack, setup_times, origin, wall = serve(workload, inputs, config, tracer)
    phases["setup_and_serve_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    jobs = inputs.jobs
    for job in jobs:
        if job.sent is None and job.error is None:
            job.error = "never sent"
    problems += check.check_engine(stack.engine)

    # Output check: solo replays on a fresh engine, outside every timed window.
    reference = new_engine(stack.model, stack.tokenizer, stack.vocab)
    sample = check.replay_sample(jobs, int(wl_cfg["replays"]), seed)
    problems += check.check_outputs(reference, sample)

    phases["output_check_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    failed = sum(1 for job in jobs if not job.completed)
    if failed:
        reasons = sorted({job.error or f"stopped_by={job.stopped_by}" for job in jobs
                          if not job.completed})
        problems.append(f"{failed} failed request(s): {reasons[:5]}")
    decode = stack.tokenizer.decode
    e2e, notes = report.end_to_end(
        jobs, wall, setup_times, stack.engine.pool.peak_bytes, wl_cfg["slo"], decode)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": report.fingerprint(), "input_digest": digest,
        "inputs": inputs.params, "calibration": wl_cfg,
        "attempted": len(jobs), "succeeded": len(jobs) - failed, "failed": failed,
        "replays_checked": len(sample), "problems": problems,
        "end_to_end": e2e, "notes": notes,
        "jobs": [
            [job.index, job.backend, job.dataset, job.n_prompt_tokens, job.due, job.sent,
             job.token_times[0] if job.token_times else None, len(job.token_ids),
             job.stopped_by, job.error]
            for job in jobs
        ],
    }
    if trace:
        index = SpanIndex(tracer.all_spans())
        layer, diagnostics = report.per_layer(
            index, jobs, tracer.results, origin, wall, stack.engine,
            stack.model.config.n_layers, per_span_cost())
        record["per_layer"] = layer
        record["diagnostics"] = diagnostics
        problems += report.missing_layers(index, jobs)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{workload}-s{seed}-spans.jsonl.gz")
    phases["report_s"] = time.perf_counter() - mark
    record["phase_seconds"] = phases
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_stack()
    config = load_config()
    if args.workload not in config["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(config['workloads'])}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), config)
    measured = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for spec in wanted:
        value = float(measured[spec["name"]][0])
        if not math.isfinite(value):
            # JSON has no NaN; a metric with nothing to measure fails the run.
            record["problems"].append(f"{spec['name']} is {value}: nothing was measured")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    fp = record["fingerprint"]
    print(f"# wallbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={fp['nproc']} numpy={fp['numpy']} blas={fp['blas']}")
    print(f"# inputs sha256={record['input_digest']}")
    print(f"# sent={record['attempted']} succeeded={record['succeeded']} "
          f"failed={record['failed']} replays_checked={record['replays_checked']}")
    for problem in record["problems"]:
        print(f"# PROBLEM: {problem}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    listed = {spec["name"] for spec in wanted}
    if not args.trace:
        for name, (value, unit) in record["end_to_end"].items():
            if name not in listed:
                print(f"{name:32s} {value:14.6g} {unit}   (diagnostic)")
    if args.trace:
        for name, value in record["diagnostics"].items():
            if name in ("self_time_balance",):
                continue
            print(f"# {name}: {json.dumps(value, default=str)}")
    result = {
        "correct": not record["problems"],
        "attempted": max(int(record["attempted"]), 1),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
