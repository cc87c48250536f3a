"""Shared fixtures for the test suite."""

import os
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

import rangemaj
from rangemaj.counted_set import CountedOrderedSet


@pytest.fixture
def child_env():
    """Build the environment for a child Python process.

    The base is minimal, so no stray ``RANGE_MAJ_*`` variable of the
    parent leaks into the child. ``PYTHONPATH`` puts the directory that
    holds the imported ``rangemaj`` package first, followed by any
    ``PYTHONPATH`` the parent has, so the child imports the same package
    from a source checkout and from an install alike.
    """

    def build(**extra):
        paths = [os.path.dirname(os.path.dirname(rangemaj.__file__))]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(paths)}
        env.update(extra)
        return env

    return build


@pytest.fixture
def set_calls():
    """Count the calls of CountedOrderedSet methods on one set.

    ``with set_calls(cs, "select", ...) as calls`` patches the named
    methods for every set and yields a function that returns a Counter
    of the calls made on cs alone since it was last read.
    """

    @contextmanager
    def spy(cs, *names):
        with ExitStack() as stack:
            mocks = {
                name: stack.enter_context(mock.patch.object(
                    CountedOrderedSet, name, autospec=True,
                    side_effect=getattr(CountedOrderedSet, name)))
                for name in names
            }

            def calls():
                got = Counter()
                for name, m in mocks.items():
                    got[name] = sum(c.args[0] is cs for c in m.call_args_list)
                    m.reset_mock()
                return got

            yield calls

    return spy
