"""Test-suite settings.

Hypothesis runs derandomized, with no deadline and no example database, so
the property tests draw the same examples on every run and host.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
