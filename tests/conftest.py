"""Shared test settings.

Property tests draw the same examples on every run (``derandomize``), so a
run is repeatable, and have no per-example deadline, since wall time per
example varies with machine load.
"""

from hypothesis import settings

settings.register_profile("c2q", derandomize=True, deadline=None)
settings.load_profile("c2q")
