"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so a property test passes or fails the same way
each time the suite is run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
