"""Suite-wide configuration: one hypothesis profile, and the engine rule.

Every property test draws the same number of examples, derandomized so
that a run (and ``tools/mutation_kill.py``, which replays the suite
against mutated sources) is reproducible; a regression input a property
once missed stays on its test as an ``@example`` row.  Loading this file
also puts ``tests/`` on ``sys.path``, which is how the shared helper
modules (``blockkit``, ``numpy_counters``) are imported.

A test names the engines it runs on: it takes the :func:`engine`
fixture (every registered engine once) and passes it on as
``backend=engine``, or it names an engine itself.  Nothing in a test may
fall back on the default engine: for the whole session ``$REPRO_ENGINE`` holds
:data:`NO_DEFAULT_ENGINE`, which is no engine's name, so
``resolve_backend(None)`` raises ``ValueError: unknown backend '…'``
naming this rule — in the test process and in every subprocess it
starts.  The tests of the default itself set or unset the variable with
``monkeypatch``.
"""

import pytest
from hypothesis import settings

from blockkit import ENGINES
from repro.sim.backends import ENGINE_ENV_VAR

settings.register_profile("repro", deadline=None, derandomize=True, max_examples=20)
settings.load_profile("repro")

#: what ``$REPRO_ENGINE`` reads during the suite: a rule, not an engine
NO_DEFAULT_ENGINE = "none: a test takes the `engine` fixture or names its engine"


@pytest.fixture(autouse=True, scope="session")
def no_default_engine():
    """Make ``resolve_backend(None)`` fail, naming the rule, for the whole
    session (module and class fixtures included)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENGINE_ENV_VAR, NO_DEFAULT_ENGINE)
        yield


@pytest.fixture(params=ENGINES)
def engine(request):
    """Each registered engine once, by its registry name."""
    return request.param

