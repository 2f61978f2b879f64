"""Benchmark harness for codewave; see bench/README.md."""
