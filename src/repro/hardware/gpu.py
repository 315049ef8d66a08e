"""GPU hardware specifications."""

from __future__ import annotations

from dataclasses import dataclass

GiB = 1024**3


@dataclass(frozen=True)
class GPUSpec:
    """Hardware parameters consumed by the analytic cost model.

    Attributes
    ----------
    name:
        Device name.
    memory_bytes:
        HBM capacity.
    hbm_bandwidth_bytes_per_s:
        Peak HBM bandwidth.
    cache_line_bytes:
        Granularity of HBM/L2 transactions; interleaved mixed-precision
        layouts waste part of every line that straddles a precision boundary.
    fp16_tflops:
        Dense FP16 throughput (tensor cores).
    dequant_ns_per_element:
        Extra per-element cost of dequantizing low-bit KV data in unfused
        kernels.
    framework_overhead_s:
        Fixed per-decode-step framework cost (Python/launch overhead of a
        HuggingFace-style serving loop).
    kv_reuse_factor:
        How many times the KV-cache bytes traverse HBM per decode step in the
        unfused attention implementation the paper benchmarks (scores,
        softmax, and weighted-sum passes per layer re-read the cache).
    """

    name: str
    memory_bytes: int
    hbm_bandwidth_bytes_per_s: float
    cache_line_bytes: int = 128
    fp16_tflops: float = 312.0
    dequant_ns_per_element: float = 0.0005
    framework_overhead_s: float = 0.005
    kv_reuse_factor: float = 8.0


#: The paper's testbed GPU.
A800_80GB = GPUSpec(
    name="NVIDIA A800 80GB",
    memory_bytes=80 * GiB,
    hbm_bandwidth_bytes_per_s=2.039e12,
    cache_line_bytes=128,
    fp16_tflops=312.0,
)

#: A smaller device, used by tests and capacity-sensitivity ablations.
A100_40GB = GPUSpec(
    name="NVIDIA A100 40GB",
    memory_bytes=40 * GiB,
    hbm_bandwidth_bytes_per_s=1.555e12,
    cache_line_bytes=128,
    fp16_tflops=312.0,
)
