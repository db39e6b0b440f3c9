"""Shared pytest plumbing.

The acceptance tests register one verdict line each; the hook below
prints them as a block after the run so the PASS/FAIL record survives
output capturing in any pytest invocation.  ``assert_entrywise`` checks
the float rule of a function of distance.
"""

import numpy as np

from tailcorr import SpecialFnResult

ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def assert_entrywise(fn, grid):
    """Check that ``fn`` on the array ``grid`` equals ``fn`` at each entry
    as a float, bit for bit, and return the array result.

    A function that estimates its error gives a ``SpecialFnResult`` for a
    float and a (values, abs_error_estimates) pair of arrays for an array;
    any other gives a Python float and an array.
    """
    got = fn(grid)
    floats = [fn(float(x)) for x in grid.ravel()]
    if isinstance(floats[0], SpecialFnResult):
        arrays = got
        want = ([r.value for r in floats],
                [r.abs_error_estimate for r in floats])
    else:
        arrays, want = (got,), (floats,)
    assert isinstance(arrays, tuple) and len(arrays) == len(want)
    for array, entries in zip(arrays, want):
        assert isinstance(array, np.ndarray) and array.shape == grid.shape
        assert all(type(v) is float for v in entries)
        assert [float(v).hex() for v in array.ravel()] == [
            v.hex() for v in entries]
    return got
