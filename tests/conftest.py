"""Test-suite configuration.

Property tests run under one Hypothesis profile: derandomized (examples
are drawn from a fixed seed, so every run on every machine checks the
same cases), with no example database and no per-example deadline (exact
rational arithmetic makes some examples slow, and a slow example is not a
failure).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
