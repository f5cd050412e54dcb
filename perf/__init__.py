"""The repository benchmark (see ``perf/README.md`` and ``BENCHMARK.json``)."""
