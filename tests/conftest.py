"""Suite-wide configuration: one hypothesis profile, and the engine rule.

Every property test draws the same number of examples, derandomized so
that a run (and ``tools/mutation_kill.py``, which replays the suite
against mutated sources) is reproducible; a regression input a property
once missed stays on its test as an ``@example`` row.  Loading this file
also puts ``tests/`` on ``sys.path``, which is how the shared helper
modules (``blockkit``, ``numpy_counters``, ``streamkit``) are imported.

A test names the engines it runs on: it takes the :func:`engine`
fixture (every registered engine once) and passes it on as
``backend=engine``, or it names an engine itself.  Nothing in a test may
fall back on the default engine: for the whole session
``repro.sim.backends.DEFAULT_BACKEND`` holds :data:`NO_DEFAULT_ENGINE`,
which is no engine's name, so ``resolve_backend(None)`` raises
``ValueError: unknown backend '…'`` naming this rule.  The tests of the
default itself, and of what runs on it by design (README's examples,
Table 1's differential trials), take :func:`default_engine`.
"""

import pytest
from hypothesis import settings

import repro.sim.backends
from blockkit import ENGINES

settings.register_profile("repro", deadline=None, derandomize=True, max_examples=20)
settings.load_profile("repro")

#: the default engine during the suite: a rule, not an engine
NO_DEFAULT_ENGINE = "none: a test takes the `engine` fixture or names its engine"
#: the package's own default, read before the suite hides it
PACKAGE_DEFAULT = repro.sim.backends.DEFAULT_BACKEND


@pytest.fixture(autouse=True, scope="session")
def no_default_engine():
    """Make ``resolve_backend(None)`` fail, naming the rule, for the whole
    session (module and class fixtures included)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.sim.backends, "DEFAULT_BACKEND", NO_DEFAULT_ENGINE)
        yield


@pytest.fixture(params=ENGINES)
def engine(request):
    """Each registered engine once, by its registry name."""
    return request.param



@pytest.fixture
def default_engine(monkeypatch):
    """The package's default engine, back in place for one test."""
    monkeypatch.setattr(repro.sim.backends, "DEFAULT_BACKEND", PACKAGE_DEFAULT)
    return PACKAGE_DEFAULT
