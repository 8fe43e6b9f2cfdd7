"""Repository benchmark: workloads, tracing and measurement harness."""
