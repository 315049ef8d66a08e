"""Wall-clock serving benchmark for the ``repro`` stack.

Run one workload at one seed from the repository root::

    python3 wallbench/run.py --workload longdoc --seed 1 --seconds 28 --trace 0

See ``wallbench/README.md`` for the workloads, the metric definitions and
the layer-to-metric map.
"""
