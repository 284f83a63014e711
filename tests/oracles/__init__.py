"""Frozen differential oracles: the pre-optimization engine, transfer,
send and failure-detector implementations, kept only so tests can pin the
optimized code in ``src/`` to their exact schedules and time them
against it."""
