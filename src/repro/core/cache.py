"""Mixed-precision chunked KV cache.

After the chunk-level quantization search and reordering, the context KV
cache of every layer is stored as three physically contiguous *precision
segments* (INT2, INT4, FP16 — "the three layers of the cocktail"), each
quantized once with per-token groups.  The decode-time attention then runs
blockwise over the segments (:mod:`repro.core.computation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.quant.dtypes import BitWidth, bytes_for_elements, metadata_bytes_for_groups
from repro.quant.group import GroupQuantizedTensor, group_quantize


@dataclass
class PrecisionSegment:
    """A contiguous run of context tokens stored at a single precision.

    Attributes
    ----------
    bits:
        Storage precision of the segment.
    token_indices:
        Original context positions of the tokens in this segment, in the
        order they are physically stored.
    k, v:
        Quantized tensors (:class:`GroupQuantizedTensor`) for integer
        precisions, raw float32 arrays for FP16.
    """

    bits: BitWidth
    token_indices: np.ndarray
    k: GroupQuantizedTensor | np.ndarray
    v: GroupQuantizedTensor | np.ndarray

    @property
    def n_tokens(self) -> int:
        """Number of tokens stored in the segment."""
        return int(self.token_indices.size)

    def dequantize_k(self) -> np.ndarray:
        """Materialise the segment's keys as float32."""
        return self.k.dequantize() if isinstance(self.k, GroupQuantizedTensor) else self.k

    def dequantize_v(self) -> np.ndarray:
        """Materialise the segment's values as float32."""
        return self.v.dequantize() if isinstance(self.v, GroupQuantizedTensor) else self.v

    def storage_bytes(self) -> int:
        """Payload + metadata bytes of the segment (both K and V)."""
        if isinstance(self.k, GroupQuantizedTensor):
            return self.k.storage_bytes() + self.v.storage_bytes()
        n_elements = int(np.prod(self.k.shape)) + int(np.prod(self.v.shape))
        return bytes_for_elements(n_elements, BitWidth.FP16)


@dataclass
class ChunkedLayerCache:
    """The context KV cache of one layer, partitioned by precision."""

    segments: list[PrecisionSegment]
    n_context: int
    n_kv_heads: int
    head_dim: int
    permutation: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_dense(
        cls,
        k_context: np.ndarray,
        v_context: np.ndarray,
        token_bits: np.ndarray,
        permutation: np.ndarray,
        *,
        precision_order: tuple[BitWidth, ...] = (BitWidth.INT2, BitWidth.INT4, BitWidth.FP16),
    ) -> "ChunkedLayerCache":
        """Build the chunked cache from dense context K/V and a reorder plan.

        Parameters
        ----------
        k_context, v_context:
            ``(n_context, n_kv_heads, head_dim)`` full-precision arrays from
            the prefill phase.
        token_bits:
            Per-token bitwidths (original order).
        permutation:
            Token permutation (new physical position -> original index) that
            makes same-precision tokens contiguous.
        """
        k_context = np.asarray(k_context, dtype=np.float32)
        v_context = np.asarray(v_context, dtype=np.float32)
        token_bits = np.asarray(token_bits, dtype=np.int64)
        permutation = np.asarray(permutation, dtype=np.int64)
        n_context, n_kv_heads, head_dim = k_context.shape
        if token_bits.shape != (n_context,):
            raise ValueError("token_bits length must match the context length")
        if sorted(permutation.tolist()) != list(range(n_context)):
            raise ValueError("permutation must cover every context token exactly once")
        reordered_bits = token_bits[permutation]
        segments: list[PrecisionSegment] = []
        for bits in precision_order:
            mask = reordered_bits == int(bits)
            if not mask.any():
                continue
            indices = permutation[mask]
            k_seg = k_context[indices]
            v_seg = v_context[indices]
            if bits is BitWidth.FP16:
                segments.append(PrecisionSegment(bits, indices, k_seg, v_seg))
            else:
                segments.append(
                    PrecisionSegment(
                        bits,
                        indices,
                        group_quantize(k_seg, bits, head_dim),
                        group_quantize(v_seg, bits, head_dim),
                    )
                )
        covered = sum(seg.n_tokens for seg in segments)
        if covered != n_context:
            missing = set(np.unique(token_bits).tolist()) - {int(b) for b in precision_order}
            raise ValueError(f"precision order does not cover bitwidths {sorted(missing)}")
        return cls(
            segments=segments,
            n_context=n_context,
            n_kv_heads=n_kv_heads,
            head_dim=head_dim,
            permutation=permutation,
        )

    # -- views -------------------------------------------------------------

    def keys_reordered(self) -> np.ndarray:
        """Dequantized keys in physical (reordered) order."""
        return np.concatenate([seg.dequantize_k() for seg in self.segments], axis=0)

    def keys_original_order(self) -> np.ndarray:
        """Dequantized keys scattered back to the original context order."""
        out = np.empty((self.n_context, self.n_kv_heads, self.head_dim), dtype=np.float32)
        for seg in self.segments:
            out[seg.token_indices] = seg.dequantize_k()
        return out

    def values_original_order(self) -> np.ndarray:
        """Dequantized values scattered back to the original context order."""
        out = np.empty((self.n_context, self.n_kv_heads, self.head_dim), dtype=np.float32)
        for seg in self.segments:
            out[seg.token_indices] = seg.dequantize_v()
        return out

    # -- accounting --------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total payload + metadata bytes across segments."""
        return sum(seg.storage_bytes() for seg in self.segments)

    def fp16_storage_bytes(self) -> int:
        """Bytes the same context would need entirely at FP16."""
        n_elements = 2 * self.n_context * self.n_kv_heads * self.head_dim
        return bytes_for_elements(n_elements, BitWidth.FP16)

    def compression_ratio(self) -> float:
        """FP16 bytes divided by actual bytes (higher = more compression)."""
        actual = self.storage_bytes()
        return self.fp16_storage_bytes() / actual if actual else float("inf")


def unordered_storage_bytes(
    token_bits: np.ndarray, n_kv_heads: int, head_dim: int, *, slot_bits: int = 16
) -> int:
    """Storage bytes of a *non-reordered* mixed-precision layout.

    Without chunk reordering, tokens of different precision interleave, so
    packed sub-byte storage cannot be used: every element occupies a full
    ``slot_bits`` slot and per-token quantization metadata is still needed.
    This models the memory inefficiency the paper's module II removes
    (Table V, "w/o Module II").
    """
    token_bits = np.asarray(token_bits, dtype=np.int64)
    n_tokens = int(token_bits.size)
    n_elements = 2 * n_tokens * n_kv_heads * head_dim
    payload = bytes_for_elements(n_elements, BitWidth.from_bits(slot_bits))
    n_quantized = int(np.sum(token_bits != int(BitWidth.FP16)))
    metadata = metadata_bytes_for_groups(2 * n_quantized * n_kv_heads)
    return payload + metadata
