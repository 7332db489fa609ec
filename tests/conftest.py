"""Hypothesis profiles of the test suite.

``deep`` (``pytest --hypothesis-profile=deep``) gives every property test
ten times the examples of hypothesis's default profile; the ``SETTINGS``
of ``test_fast_paths`` scale with the loaded profile.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)
