"""Seeded inputs of the three workloads.

Everything a run sends is built here from ``(workload, seed, seconds)`` and
the calibration in ``config.json``; the serving stack sees only the
generated requests.  Each workload splits its inputs in two:

* the *traffic shape* — arrival times, context lengths, backends, datasets
  and output budgets — is drawn from :data:`DESIGN_SEED`, by stratified
  sampling, so every run offers the same load;
* the *content* — every document, question and gold answer — is drawn from
  ``--seed``.

A run of a few dozen long requests would otherwise measure the luck of the
arrival draw more than the system: with the shape fixed, the spread between
seeds is the system's response to different documents.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.generator import SampleGenerator
from repro.datasets.longbench import build_vocabulary, dataset_names, get_dataset_spec
from repro.serving.request import GenerationRequest

#: Seed of every workload's traffic shape (``--seed`` draws the content).
DESIGN_SEED = 20251017


@dataclass
class Job:
    """One request of a run: its inputs, then what the run observed."""

    index: int
    backend: str
    context: tuple[str, ...]
    query: tuple[str, ...]
    max_new_tokens: int
    stop_on_special: bool
    dataset: str
    metric: str
    answer: str
    #: Seconds after the window opened at which the request is due
    #: (open loop / offline batch); closed-loop jobs are due when sent.
    due: float | None = None
    client: int = 0
    # -- outcome (filled by the host loops in hosts.py) --
    sent: float | None = None
    head_at: float | None = None
    token_ids: list[int] = field(default_factory=list)
    token_times: list[float] = field(default_factory=list)
    done_at: float | None = None
    stopped_by: str | None = None
    error: str | None = None
    engine_ttft: float | None = None
    #: The id the HTTP server assigned (the engine-side request id).
    server_id: str | None = None

    @property
    def request_id(self) -> str:
        return f"wb-{self.index}"

    @property
    def engine_id(self) -> str:
        return self.server_id or self.request_id

    @property
    def n_prompt_tokens(self) -> int:
        return len(self.context) + 1 + len(self.query)

    def to_request(self, request_id: str | None = None) -> GenerationRequest:
        return GenerationRequest(
            self.context,
            self.query,
            max_new_tokens=self.max_new_tokens,
            backend=self.backend,
            stop_on_special=self.stop_on_special,
            request_id=request_id or self.request_id,
        )

    def to_wire(self) -> dict:
        return {
            "context": list(self.context),
            "query": list(self.query),
            "backend": self.backend,
            "max_tokens": self.max_new_tokens,
            "stop_on_special": self.stop_on_special,
        }

    @property
    def completed(self) -> bool:
        return self.error is None and self.stopped_by in ("stop_token", "max_tokens")


@dataclass
class WorkloadInputs:
    """A run's generated inputs plus the constants they were built from."""

    workload: str
    seed: int
    jobs: list[Job]
    #: chat: jobs grouped into offline batches; agents_http: per-client queues.
    groups: list[list[Job]] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over every generated input (order, text, budgets, schedule)."""
        h = hashlib.sha256()
        h.update(json.dumps([self.workload, self.seed, self.params], sort_keys=True).encode())
        for group_index, group in enumerate(self.groups or [self.jobs]):
            for job in group:
                row = [
                    group_index, job.index, job.backend, job.max_new_tokens,
                    job.stop_on_special, job.dataset, job.answer,
                    None if job.due is None else round(job.due, 9), job.client,
                ]
                h.update(json.dumps(row).encode())
                h.update(" ".join(job.context).encode())
                h.update(b"\x1f")
                h.update(" ".join(job.query).encode())
        return h.hexdigest()


def _rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**32, *(_tag(t) for t in tags)])


def _tag(tag) -> int:
    return int.from_bytes(hashlib.sha256(str(tag).encode()).digest()[:4], "little")


def stratified_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws in [0, 1), one from each of ``n`` equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def stratified_choice(rng: np.random.Generator, weights: dict[str, int], n: int) -> list[str]:
    """``n`` labels in exact proportion to integer ``weights``, in shuffled blocks."""
    block = [name for name, count in weights.items() for _ in range(count)]
    out: list[str] = []
    while len(out) < n:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:n]


def _sample(vocab, dataset: str, n_words: int, seed: int, sample_id: int, *, short: bool = False):
    spec = get_dataset_spec(dataset)
    spec = dataclasses.replace(spec, n_context_words=int(n_words))
    if short:
        # A short chat turn has room for its answer fact and a few others.
        spec = dataclasses.replace(
            spec,
            n_related_facts=1,
            n_distractor_facts=max(0, (int(n_words) - 64) // 48),
            n_trap_chunks=0,
        )
    return SampleGenerator(vocab, spec, seed=seed).generate(sample_id)


def build_longdoc(seed: int, seconds: float, cfg: dict, vocab) -> WorkloadInputs:
    """Open loop: Poisson arrivals, each with its own unshared long document."""
    rng = _rng(DESIGN_SEED, "longdoc")
    rate = float(cfg["rate_rps"])
    n = max(1, int(math.floor(rate * seconds)))
    # Exponential gaps by stratified inverse-CDF draws: a Poisson process of
    # the configured rate whose gap distribution is the same in every run.
    gaps = -np.log1p(-stratified_uniform(rng, max(n - 1, 1))) / rate
    due = np.concatenate([[0.0], np.cumsum(gaps)])[:n]
    lo, hi = cfg["context_tokens"]
    lengths = lo + (hi - lo) * stratified_uniform(rng, n)
    backends = stratified_choice(rng, cfg["backend_mix"], n)
    datasets = stratified_choice(rng, {name: 1 for name in dataset_names()}, n)
    jobs = []
    for i in range(n):
        sample = _sample(vocab, datasets[i], lengths[i], seed, i)
        jobs.append(Job(
            index=i, backend=backends[i], context=sample.context_words,
            query=sample.query_words, max_new_tokens=int(cfg["max_new_tokens"]),
            stop_on_special=True, dataset=sample.dataset, metric=sample.metric,
            answer=sample.answer_text, due=float(due[i]),
        ))
    return WorkloadInputs("longdoc", seed, jobs, [jobs], {"rate_rps": rate, "n": n})


def build_chat(seed: int, seconds: float, cfg: dict, vocab) -> WorkloadInputs:
    """Offline batches: every request of a batch is due when the batch opens.

    A run serves a fixed number of batches, one per calibrated
    ``batch_seconds`` of the window, so the work (and the pages the prefix
    index retains) does not depend on how fast the system is.
    """
    rng = _rng(DESIGN_SEED, "chat")
    per_batch = int(cfg["batch_size"])
    n_batches = max(1, round(seconds / float(cfg["batch_seconds"])))
    n = per_batch * n_batches
    lo, hi = cfg["context_tokens"]
    lengths = lo + (hi - lo) * stratified_uniform(rng, n)
    out_lo, out_hi = cfg["output_tokens"]
    outputs = np.floor(out_lo + (out_hi - out_lo + 1) * stratified_uniform(rng, n)).astype(int)
    backends = stratified_choice(rng, cfg["backend_mix"], n)
    datasets = stratified_choice(rng, {name: 1 for name in dataset_names()}, n)
    jobs = []
    for i in range(n):
        sample = _sample(vocab, datasets[i], lengths[i], seed, 100_000 + i, short=True)
        jobs.append(Job(
            index=i, backend=backends[i], context=sample.context_words,
            query=sample.query_words, max_new_tokens=int(outputs[i]),
            stop_on_special=False, dataset=sample.dataset, metric=sample.metric,
            answer=sample.answer_text, due=0.0,
        ))
    groups = [jobs[b * per_batch:(b + 1) * per_batch] for b in range(n_batches)]
    return WorkloadInputs("chat", seed, jobs, groups, {"batch_size": per_batch, "n": n})


def document_facts(context: tuple[str, ...], keys: frozenset[str]) -> list[tuple[str, list[str]]]:
    """Every planted ``key v1 .. vL <sep>`` fact of a document, as (key, values)."""
    facts = []
    for i, word in enumerate(context):
        if word in keys:
            try:
                end = context.index("<sep>", i + 1)
            except ValueError:
                continue
            if end > i + 1:
                facts.append((word, list(context[i + 1:end])))
    return facts


def fact_question(
    rng: np.random.Generator, vocab, lexicon: dict, key: str, values: list[str]
) -> tuple[str, ...]:
    """A question about one fact, phrased like the dataset's own queries:
    question words, two paraphrased synonyms of the fact's topic, the key."""
    words = [vocab.question_words[int(rng.integers(len(vocab.question_words)))]
             for _ in range(int(rng.integers(3, 6)))]
    topic = lexicon.get(values[0])
    if topic is not None:
        synonyms = vocab.synonyms_of(topic)
        paraphrases = synonyms[len(synonyms) // 2:] or synonyms
        words += [paraphrases[int(rng.integers(len(paraphrases)))] for _ in range(2)]
    return tuple(words + [key])


def build_agents_http(seed: int, seconds: float, cfg: dict, vocab) -> WorkloadInputs:
    """Closed loop: multi-turn sessions over a few shared documents.

    Each client runs a fixed number of sessions, one per calibrated
    ``session_seconds`` of the window, and at least enough that every
    backend of the mix serves a session.
    """
    design = _rng(DESIGN_SEED, "agents_http")
    keys = frozenset(vocab.keys)
    lexicon = vocab.lexicon
    lo, hi = cfg["context_tokens"]
    docs = []
    doc_sets = cfg["datasets"]
    for d in range(int(cfg["n_documents"])):
        n_words = lo + (hi - lo) * (d + design.random()) / int(cfg["n_documents"])
        sample = _sample(vocab, doc_sets[d % len(doc_sets)], n_words, seed, 200_000 + d)
        facts = document_facts(sample.context_words, keys)
        docs.append((sample, facts))
    clients = int(cfg["clients"])
    turns_per_session = int(cfg["turns_per_session"])
    mix = cfg["backend_mix"]
    n_sessions = max(math.ceil(len(mix) / clients),
                     round(seconds / float(cfg["session_seconds"])))
    # Session k of client c is session c + k * clients of one stratified draw.
    backends = stratified_choice(design, mix, clients * n_sessions)
    doc_order = stratified_choice(design, {str(d): 1 for d in range(len(docs))},
                                  clients * n_sessions)
    groups: list[list[Job]] = []
    index = 0
    for client in range(clients):
        crng = _rng(seed, "agents_http", client)
        queue = []
        for s in range(client, clients * n_sessions, clients):
            sample, facts = docs[int(doc_order[s])]
            picks = crng.choice(len(facts), size=min(turns_per_session, len(facts)), replace=False)
            for pick in picks:
                key, values = facts[int(pick)]
                queue.append(Job(
                    index=index, backend=backends[s], context=sample.context_words,
                    query=fact_question(crng, vocab, lexicon, key, values),
                    max_new_tokens=int(cfg["max_new_tokens"]), stop_on_special=True,
                    dataset=sample.dataset, metric=sample.metric, answer=" ".join(values),
                    client=client,
                ))
                index += 1
        groups.append(queue)
    jobs = [job for queue in groups for job in queue]
    return WorkloadInputs("agents_http", seed, jobs, groups,
                          {"clients": clients, "n": len(jobs)})


INPUTS = {"longdoc": build_longdoc, "chat": build_chat, "agents_http": build_agents_http}


def build_inputs(workload: str, seed: int, seconds: float, config: dict) -> WorkloadInputs:
    """The seeded inputs of ``workload`` for a run of ``seconds``."""
    return INPUTS[workload](seed, seconds, config["workloads"][workload], build_vocabulary())
