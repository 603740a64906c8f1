"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test, so a failure in CI replays with the
same examples locally, and prints the blob that reproduces it; select it with
``pytest --hypothesis-profile=ci``. The default profile is untouched.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
