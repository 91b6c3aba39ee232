"""Shared test configuration.

The checkout's ``src`` is appended to ``sys.path``, after any ``PYTHONPATH``
entry: a bare ``pytest`` in a checkout tests that checkout, and
``PYTHONPATH=<another copy>/src pytest`` tests the other copy.

Property tests run under a deterministic hypothesis profile: examples are
derived from each test's source rather than drawn at random, no example
database is written, and each test tries at most 100 examples, so a run is
reproducible and its cost is bounded.

The ``serial_pool`` fixture runs Monte Carlo chunks in the test's own
process, where its patches and spies reach them; forked pool processes
would neither see a patch made after their fork nor report back to a spy.
"""

import os
import sys
from types import SimpleNamespace

import pytest

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


@pytest.fixture
def serial_pool(monkeypatch):
    """Run Monte Carlo runs in this process as if it may run on 2 CPUs; returns the requested pool sizes.

    ``indicators._mc_pool`` becomes an in-process ``map``, so the runs of
    chunks are counted here, one after another.
    """
    from wigner_classicality import indicators

    pools = []
    monkeypatch.setattr(indicators, "_mc_pool", lambda size: pools.append(size) or SimpleNamespace(map=map))
    monkeypatch.setattr(indicators, "_usable_cpus", lambda: 2)
    return pools
