"""The hypothesis policy of the whole suite: every property test replays
the same examples on every run (derandomized, no example database) and
has no per-example deadline.  Each test sets only its example count."""

from hypothesis import settings

settings.register_profile("synlab", derandomize=True, deadline=None, database=None)
settings.load_profile("synlab")
