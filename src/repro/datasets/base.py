"""Dataset specifications and the long-context sample container."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one synthetic LongBench-style task.

    Attributes
    ----------
    name:
        Machine name (``qasper``, ``qmsum``, ...).
    display_name:
        Name used in reports (matches the paper's Table I).
    task:
        Task family string from Table I.
    metric:
        Metric registry key: ``"f1"``, ``"rouge"``, ``"classification"`` or
        ``"code_sim"``.
    n_context_words:
        Approximate context length in tokens.
    answer_length:
        Inclusive ``(min, max)`` range of the answer phrase length.
    n_related_facts:
        Number of same-topic (moderately relevant) facts.
    n_distractor_facts:
        Number of off-topic facts.
    n_trap_chunks:
        Number of "lexical trap" segments that copy query question-words but
        contain no relevant content (they fool purely lexical encoders).
    topic_words_per_segment:
        How many topic synonyms are sprinkled into each relevant segment.
    query_paraphrase:
        Whether the query uses different topic synonyms than the context.
    answer_from_labels:
        Draw answer tokens from the closed label set (classification tasks).
    style:
        Surface style of the filler text (``prose``, ``dialogue``, ``code``).
    answer_position:
        Preferred relative position of the answer fact in the context
        (``0.0`` = beginning, ``1.0`` = end); the generator jitters around it.
    """

    name: str
    display_name: str
    task: str
    metric: str
    n_context_words: int
    answer_length: tuple[int, int]
    n_related_facts: int = 2
    n_distractor_facts: int = 12
    n_trap_chunks: int = 2
    topic_words_per_segment: int = 6
    query_paraphrase: bool = True
    answer_from_labels: bool = False
    style: str = "prose"
    answer_position: float = 0.5

    def __post_init__(self) -> None:
        check_positive("n_context_words", self.n_context_words)
        low, high = self.answer_length
        if not 1 <= low <= high:
            raise ValueError(f"invalid answer_length range {self.answer_length}")
        if self.metric not in ("f1", "rouge", "classification", "code_sim"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 0.0 <= self.answer_position <= 1.0:
            raise ValueError("answer_position must be in [0, 1]")


@dataclass(frozen=True)
class LongContextSample:
    """One long-context request: context, query and gold answer."""

    dataset: str
    metric: str
    sample_id: int
    context_words: tuple[str, ...]
    query_words: tuple[str, ...]
    answer_text: str
    answer_key: str
    topic: str
    relevant_span: tuple[int, int]
    related_spans: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def query_text(self) -> str:
        """Whitespace-joined query."""
        return " ".join(self.query_words)

    @property
    def prompt_words(self) -> tuple[str, ...]:
        """Context followed by a separator and the query (the LLM prompt)."""
        return self.context_words + ("<sep>",) + self.query_words

    @property
    def n_context_tokens(self) -> int:
        """Number of context tokens (the quantizable KV-cache region)."""
        return len(self.context_words)

    @property
    def answer_words(self) -> tuple[str, ...]:
        """Gold answer as a word tuple."""
        return tuple(self.answer_text.split())
