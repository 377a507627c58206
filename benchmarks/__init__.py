"""Benchmark harness: pytest-benchmark files and standalone probes."""
