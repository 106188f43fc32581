"""Suite-wide settings: Hypothesis runs derandomized and without a deadline,
so property tests draw the same examples on every run and a slow machine
cannot fail them."""

from hypothesis import settings

settings.register_profile("matwidth", derandomize=True, deadline=None)
settings.load_profile("matwidth")
