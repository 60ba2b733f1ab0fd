"""Shared test settings: one deterministic profile for the property tests,
so every run draws the same examples and the suite's time stays fixed."""

try:
    from hypothesis import settings
except ImportError:  # tests/test_fuzz.py skips itself
    pass
else:
    settings.register_profile("qflsim", derandomize=True, deadline=None,
                              max_examples=60)
    settings.load_profile("qflsim")
