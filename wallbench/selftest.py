"""Self-test of the benchmark harness at tiny size (about half a minute).

Run from the repository root::

    python3 -m pytest wallbench/selftest.py -q

The file is deliberately not named ``test_*.py``: the repository's tier-1
suite collects everything under the root, and these runs are too slow for
it.  What is checked:

* every metric named in ``BENCHMARK.json`` prints with its unit, for every
  workload, untraced and traced, and the last stdout line is the result
  object the benchmark contract specifies; every layer a ``cocktail``
  request passes through reads nonzero, and a layer without spans fails
  the run;
* the output check catches an injected wrong token;
* span self times sum back to each root span, and the harness root span
  covers the measured wall time;
* inputs are a function of the seed;
* the command fails without printing a result when ``src/`` is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from wallbench import run as bench  # noqa: E402
bench._import_stack()

from wallbench.report import REQUIRED_LAYERS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
WORKDIR = ROOT / ".wallbench_out" / "selftest"


SEED = 3


def _tiny_seconds(workload: str) -> float:
    """The shortest window (in 0.5 s steps) whose inputs include a cocktail request."""
    from wallbench.inputs import build_inputs

    config = bench.load_config()
    seconds = 1.0
    while not any(job.backend == "cocktail"
                  for job in build_inputs(workload, SEED, seconds, config).jobs):
        seconds += 0.5
    return seconds


def _cli(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", str(_tiny_seconds(workload)), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _cli(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    record = json.loads((ROOT / ".wallbench_out" / f"{workload}-s{SEED}-t{trace}.json").read_text())
    measured = record["per_layer"] if trace else record["end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in wanted}
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
        assert math.isfinite(measured[spec["name"]][0]), spec["name"]
        # The human-readable table names the metric and its unit too.
        assert any(line.split()[:1] == [spec["name"]] and line.endswith(spec["unit"])
                   for line in lines), spec["name"]
    nonzero = list(REQUIRED_LAYERS.values()) if trace else list(result["metrics"])
    for name in nonzero:
        assert result["metrics"][name]["value"] != 0.0, name


def test_a_layer_without_spans_is_a_problem():
    from wallbench.inputs import Job
    from wallbench.report import SpanIndex, missing_layers

    job = Job(index=0, backend="cocktail", context=("a",), query=("b",), max_new_tokens=2,
              stop_on_special=False, dataset="qasper", metric="f1", answer="x",
              token_ids=[1, 2], stopped_by="max_tokens")
    every = [[name, 0.0, 1.0, -1, None, 1] for name in REQUIRED_LAYERS]
    assert missing_layers(SpanIndex([("main", every)]), [job]) == []
    without = [row for row in every if row[0] != "model.prefill"]
    problems = missing_layers(SpanIndex([("main", without)]), [job])
    assert len(problems) == 1 and "model.prefill" in problems[0]
    job.backend = "fp16"
    assert missing_layers(SpanIndex([("main", without)]), [job]) == []


@pytest.fixture(scope="module")
def stack():
    config = bench.load_config()
    return bench.set_up_in_process(config, ["cocktail", "fp16"])


def _tiny_jobs(stack, n=3):
    from wallbench.inputs import Job

    words = stack.vocab.all_words()
    return [
        Job(index=i, backend=("cocktail", "fp16")[i % 2],
            context=tuple(words[200 + 7 * i:300 + 7 * i]), query=tuple(words[250 + i:253 + i]),
            max_new_tokens=6, stop_on_special=False, dataset="qasper", metric="f1", answer="x")
        for i in range(n)
    ]


def test_output_check_catches_an_injected_wrong_token(stack):
    from wallbench import check, hosts

    jobs = _tiny_jobs(stack)
    hosts.run_offline_batches(stack.engine, [jobs])
    assert all(job.completed and len(job.token_ids) == 6 for job in jobs)
    reference = bench.new_engine(stack.model, stack.tokenizer, stack.vocab)
    assert check.check_outputs(reference, jobs) == []
    assert check.check_engine(stack.engine) == []
    victim = jobs[1]
    victim.token_ids[3] = (victim.token_ids[3] + 1) % stack.tokenizer.vocab_size
    problems = check.check_outputs(reference, jobs)
    assert len(problems) == 1 and "job 1" in problems[0]
    assert not victim.completed and jobs[0].completed


def test_span_self_times_sum_to_traced_wall_time():
    config = bench.load_config()
    record = bench.run("chat", 5, 1.0, True, config)
    balance = record["diagnostics"]["self_time_balance"]
    assert balance, "no spans recorded"
    for name, duration, self_sum in balance:
        assert abs(duration - self_sum) <= 1e-9 * max(1.0, duration) + 1e-12, name
    roots = [row for row in balance if row[0] == "harness.run"]
    assert len(roots) == 1
    wall = record["notes"]["wall_s"]
    assert abs(roots[0][1] - wall) <= 0.01 * wall + 1e-3
    assert record["per_layer"]["trace.overhead_frac"][0] < 0.05


def test_inputs_are_a_function_of_the_seed():
    from wallbench.inputs import build_inputs

    config = bench.load_config()
    for workload in WORKLOADS:
        a = build_inputs(workload, 11, 4.0, config).digest()
        assert a == build_inputs(workload, 11, 4.0, config).digest()
        assert a != build_inputs(workload, 12, 4.0, config).digest()


def test_fails_without_a_result_when_the_program_is_absent():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
