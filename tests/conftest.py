"""Suite-wide settings.

Property tests run under a derandomized hypothesis profile with a fixed
example count, so every run of the suite draws the same examples and the
suite's outcome and running time do not vary from run to run.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("deterministic")
