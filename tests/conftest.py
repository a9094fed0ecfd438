"""Test settings shared by every module.

The hypothesis tests draw their examples from a seed derived from each
test, not at random, so every run checks the same examples and takes
about the same time.  Each test's own `max_examples` still applies.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
