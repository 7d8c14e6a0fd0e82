import numpy as np
import pytest


@pytest.fixture
def calls_of():
    """`calls_of(f)`: `f`, and the list of the points of each of its calls.
    The points are the last argument, so this serves a function of arrays
    `f(k)` and a family evaluator `f(which, k)` alike."""

    def record(f):
        calls = []
        return (lambda *args: calls.append(np.array(args[-1])) or f(*args)), calls

    return record


@pytest.fixture
def dirichlet_neumann():
    """`dirichlet_neumann(length)`: a bond of `length` with one Dirichlet and
    one Neumann end, det(I - S D(k)) = 1 + exp(2ik length), which has a
    simple zero at every odd multiple of pi / (2 length)."""
    from qgsym import SecularSystem

    return lambda length: SecularSystem(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex), np.full(2, length))
