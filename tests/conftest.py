"""Engine selection for the test suite.

The compiled kernels are the default engine; the object graph is the
reference oracle, reachable only through ``REPRO_COMPILED=0``.  Every
test starts from the default (the ambient variable is cleared), and
the equivalence suites build their oracle side inside
``with object_engine():``.  Caches, backends and the search read the
flag once, when they are built, so an object built inside the block
stays on the object graph after it ends.
"""

import contextlib

import pytest

from repro.compiled.flags import ENV_VAR


@pytest.fixture(autouse=True)
def _default_engine(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture
def object_engine(monkeypatch):
    """``with object_engine(): ...`` builds on the object-graph oracle.

    ``object_engine(False)`` is a no-op block, for tests parametrised
    over both engines.
    """

    @contextlib.contextmanager
    def block(active: bool = True):
        with monkeypatch.context() as patch:
            if active:
                patch.setenv(ENV_VAR, "0")
            yield

    return block
