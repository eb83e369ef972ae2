import itertools

import pytest
from hypothesis import HealthCheck, settings

from wfcheck.process import and_, seq, task, validate, xor

settings.register_profile(
    "ci", derandomize=True, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None)
settings.load_profile("ci")


def build_example_model():
    """Two parallel lanes, one with a choice, then a retracting task."""
    root = seq(
        and_(
            xor(task("t1", "a"), task("t2", "b", "c")),
            task("t3", "c", "d"),
        ),
        task("t4", "-a"),
    )
    return validate(root, name="parallel_choice")


def build_level(depth, ids=None):
    """A wide choice model: level(0) is a task asserting a, and level(d) a
    seq of 3 x xor(level(d-1), seq(level(d-1), task asserting -a)).  With
    R(d) = (2 R(d-1))**3 runs, level(4) has 2,073 tasks, 3,886 blocks and
    2**120 runs."""
    ids = itertools.count() if ids is None else ids
    if depth == 0:
        return task(f"t{next(ids)}", "a")
    return seq(*[xor(build_level(depth - 1, ids),
                     seq(build_level(depth - 1, ids),
                         task(f"t{next(ids)}", "-a")))
                 for _ in range(3)])


@pytest.fixture
def example_model():
    return build_example_model()
