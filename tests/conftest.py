"""Suite-wide configuration: one hypothesis profile.

Every property test draws the same number of examples, derandomized so
that a run (and ``tools/mutation_kill.py``, which replays the suite
against mutated sources) is reproducible; a regression input a property
once missed stays on its test as an ``@example`` row.  Loading this file
also puts ``tests/`` on ``sys.path``, which is how the shared helper
modules (``blockkit``, ``numpy_counters``) are imported.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None, derandomize=True, max_examples=20)
settings.load_profile("repro")
