"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` derandomizes the properties
and prints a reproduction blob for each failure, so a property that fails in
CI fails the same way on a rerun; unset, the draws stay random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
