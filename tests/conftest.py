"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test, so a failure in CI replays with the
same examples locally, and prints the blob that reproduces it; select it with
``pytest --hypothesis-profile=ci``.  ``ring`` is ``ci`` with 1000 examples per
property test, for a deeper run of ``tests/test_polyring.py``.  The default
profile is untouched.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("ring", settings.get_profile("ci"), max_examples=1000)
