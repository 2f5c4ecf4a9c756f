"""Hypothesis profiles, and the interpreter's int/str digit limit.

`pytest --hypothesis-profile=derandomized` draws the same examples on
every run and reads no example database, so a test that fails on a
deliberately broken copy of the code fails there every time; without the
option each run draws fresh examples as hypothesis does by default."""

import sys

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)


@pytest.fixture
def digit_limit():
    """The interpreter's int/str digit limit, set to its default of 4300
    for the test whatever the environment sets (0 turns it off)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)
