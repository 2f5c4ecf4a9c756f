"""Hypothesis profiles.  `pytest --hypothesis-profile=derandomized` draws
the same examples on every run and reads no example database, so a test
that fails on a deliberately broken copy of the code fails there every
time; without the option each run draws fresh examples as hypothesis does
by default."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
