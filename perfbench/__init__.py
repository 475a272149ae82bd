"""Benchmark of the ffrg pipeline: three workloads, end-to-end metrics and
a traced run with per-module metrics.  Entry point: ``perfbench/run.py``."""
