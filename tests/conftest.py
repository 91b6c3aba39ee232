"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: examples are
derived from each test's source rather than drawn at random, no example
database is written, and each test tries at most 100 examples, so a run is
reproducible and its cost is bounded.
"""

try:
    from hypothesis import settings
except ImportError:  # tests/test_twins.py reports the missing package itself
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None,
                              max_examples=100, deadline=None)
    settings.load_profile("deterministic")
