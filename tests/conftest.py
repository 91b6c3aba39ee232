"""Shared test configuration.

The checkout's ``src`` is appended to ``sys.path``, after any ``PYTHONPATH``
entry: a bare ``pytest`` in a checkout tests that checkout, and
``PYTHONPATH=<another copy>/src pytest`` tests the other copy.

Property tests run under a deterministic hypothesis profile: examples are
derived from each test's source rather than drawn at random, no example
database is written, and each test tries at most 100 examples, so a run is
reproducible and its cost is bounded.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)

try:
    from hypothesis import settings
except ImportError:  # tests/test_twins.py reports the missing package itself
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None,
                              max_examples=100, deadline=None)
    settings.load_profile("deterministic")
