import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

pytest_plugins = ["pytester"]

# Derandomized: every tier-1 run draws the same examples in the same order.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("deterministic")
