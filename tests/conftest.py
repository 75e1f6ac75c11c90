"""Shared fixtures: the two worked example programs.

Both programs induce the same joint distribution over (treatment, recovery)
but answer counterfactual queries differently, which several tests lean on.
"""

import os
from pathlib import Path

import pytest

from causalog import parse_program

SRC = str(Path(__file__).resolve().parent.parent / "src")

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, none kept between runs, and no time
    # limit per example, since the first one may import numpy
    settings.register_profile("derandomize", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("derandomize")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    """Child interpreters started by tests import causalog from ``src``, as
    the tests do through pytest's ``pythonpath`` setting."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield

BOOST_TEXT = """\
0.5 :: treatment.
0.5 :: recovery.
0.4 :: recovery :- treatment.
"""

SWITCH_TEXT = """\
0.5 :: treatment.
0.7 :: recovery :- treatment.
0.5 :: recovery :- \\+ treatment.
"""

# Joint distribution shared by both programs, keyed (treatment, recovery).
SHARED_JOINT = {
    (True, True): 0.35,
    (True, False): 0.15,
    (False, True): 0.25,
    (False, False): 0.25,
}


@pytest.fixture
def boost_program():
    """Treatment-boosts-recovery: an unconditional chance plus a lift."""
    return parse_program(BOOST_TEXT)


@pytest.fixture
def switch_program():
    """Same joint, different mechanism: recovery switches on treatment."""
    return parse_program(SWITCH_TEXT)
