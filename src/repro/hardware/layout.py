"""KV-cache storage profiles: what the hardware model needs to know about a method.

A :class:`KVCacheProfile` summarises a quantization method's *layout*:
the fraction of tokens at each bitwidth, whether same-precision regions are
physically contiguous, and which storage layout that implies.  Profiles are
derived from the per-request :class:`~repro.baselines.base.KVQuantizationPlan`
produced by the accuracy simulator, so the efficiency experiments use the
precision mix a real request actually received.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.baselines.base import KVQuantizationPlan
from repro.quant.dtypes import BitWidth


class LayoutKind(enum.Enum):
    """Physical storage layout of a (possibly mixed-precision) KV cache."""

    #: Same-precision tokens are contiguous (uniform methods, or Cocktail
    #: after chunk reordering): sub-byte codes can be bit-packed densely.
    PACKED = "packed"
    #: Mostly one low precision with a small scattered FP16 outlier set
    #: (KVQuant): packed low-bit payload plus a sparse outlier store.
    SPARSE_OUTLIER = "sparse_outlier"
    #: Fully interleaved mixed precision (Cocktail without module II): every
    #: element occupies a full-width slot because packing across precision
    #: boundaries inside cache lines is not possible.
    UNPACKED_MIXED = "unpacked_mixed"


@dataclass(frozen=True)
class KVCacheProfile:
    """Storage/search profile of a quantization method for one request."""

    method: str
    bit_fractions: dict[BitWidth, float]
    reordered: bool
    layout: LayoutKind
    search_seconds: float = 0.0
    chunk_size: int = 32
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.bit_fractions.values())
        if self.bit_fractions and not 0.999 <= total <= 1.001:
            raise ValueError(f"bit fractions must sum to 1, got {total}")

    @property
    def mean_bits(self) -> float:
        """Average payload bits per element."""
        if not self.bit_fractions:
            return float(BitWidth.FP16)
        return sum(float(int(bits)) * frac for bits, frac in self.bit_fractions.items())

    @property
    def quantized_fraction(self) -> float:
        """Fraction of tokens stored at an integer bitwidth."""
        return sum(
            frac for bits, frac in self.bit_fractions.items() if bits is not BitWidth.FP16
        )

    @classmethod
    def from_plan(
        cls, plan: KVQuantizationPlan, *, chunk_size: int = 32
    ) -> "KVCacheProfile":
        """Derive the storage profile from a quantization plan."""
        fractions = plan.bit_fractions()
        layout = classify_layout(fractions, plan.reordered)
        return cls(
            method=plan.method,
            bit_fractions=fractions,
            reordered=plan.reordered,
            layout=layout,
            search_seconds=plan.search_seconds,
            chunk_size=chunk_size,
            details=dict(plan.details) if plan.details else {},
        )

    @classmethod
    def uniform(cls, method: str, bits: BitWidth) -> "KVCacheProfile":
        """Profile of a uniform single-precision method."""
        return cls(
            method=method,
            bit_fractions={bits: 1.0},
            reordered=True,
            layout=LayoutKind.PACKED,
        )


def classify_layout(
    bit_fractions: dict[BitWidth, float], reordered: bool
) -> LayoutKind:
    """Decide which storage layout a precision mix and ordering imply."""
    n_precisions = sum(1 for frac in bit_fractions.values() if frac > 0)
    if reordered or n_precisions <= 1:
        return LayoutKind.PACKED
    fp16_fraction = bit_fractions.get(BitWidth.FP16, 0.0)
    if n_precisions == 2 and fp16_fraction <= 0.05:
        return LayoutKind.SPARSE_OUTLIER
    return LayoutKind.UNPACKED_MIXED
