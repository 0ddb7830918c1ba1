"""Suite-wide settings: every Hypothesis test draws the same examples on every run.

The examples are seeded from each test's own source, so a failure seen once
is seen again on the next run, on any machine with the same Hypothesis and
Python versions.  No example database is kept between runs.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
