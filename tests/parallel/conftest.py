"""Hypothesis profiles of the parallel-plane tests.

Tier-1 runs the codec's generated tests on Hypothesis's default budget;
CI's ``robustness-smoke`` step selects the larger one with
``--hypothesis-profile=robustness`` (profiles must exist before pytest
configures the Hypothesis plugin, hence a conftest).
"""

from hypothesis import settings

settings.register_profile("robustness", max_examples=2000, deadline=None)
