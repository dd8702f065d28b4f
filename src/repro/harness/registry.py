"""Study registry: one :class:`Study` per paper table/figure.

Each module under :mod:`repro.studies` exports a module-level ``STUDY``
describing how to *enumerate* its sweep points as
:class:`~repro.harness.spec.ExperimentSpec` records, *execute* a single
point into a JSON payload, and *render* a list of results back into the
paper's table/figure text, plus its option table
(:class:`~repro.harness.options.Option` rows).  The registry resolves
study names lazily so importing the harness does not pull in every
study's dependencies.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .options import Option
from .spec import ExperimentResult, ExperimentSpec

#: canonical study order (the paper's presentation order)
STUDY_NAMES: Tuple[str, ...] = (
    "table1", "table2", "fig11", "fig12", "fig13", "fig14", "fig15",
)


@dataclass
class Study:
    """How a study plugs into the sweep harness.

    ``enumerate_fn(**options, backend=...)`` yields the sweep points; it
    is called with every option of ``options`` (and ``backend`` when the
    study simulates).  ``execute(spec)`` must be a pure function of the
    spec (workers run it in other processes) and return a
    JSON-serialisable payload.  ``render(results)`` produces the
    human-readable table/figure text.
    """

    name: str
    title: str
    enumerate_fn: Callable[..., List[ExperimentSpec]]
    execute_fn: Callable[[ExperimentSpec], Dict[str, Any]]
    render_fn: Callable[[List[ExperimentResult]], str]
    #: whether points run block-level simulations (and thus depend on
    #: the selected engine); compile-only/analytic studies ignore it
    uses_backend: bool = True
    #: the study's options, one row each, in ``enumerate_fn`` order
    options: Tuple[Option, ...] = ()

    @property
    def quick_options(self) -> Dict[str, Any]:
        """The reduced-scale overrides of a smoke run (``--quick``)."""
        return {o.name: o.quick for o in self.options if o.quick is not None}

    def parse(self, texts: Dict[str, str]) -> Dict[str, Any]:
        """The declared ones of ``--opt`` *texts*, typed by their rows."""
        return {o.name: o.parse(self.name, texts[o.name])
                for o in self.options if o.name in texts}

    def enumerate(self, backend: Optional[str] = None,
                  options: Optional[Dict[str, Any]] = None) -> List[ExperimentSpec]:
        """The sweep points at *options* over the declared defaults.

        Keys the study does not declare are ignored, so one option set
        can drive several studies; every value is checked against its
        row first (:class:`~repro.harness.options.OptionError`).
        """
        given = options or {}
        values: Dict[str, Any] = {}
        for option in self.options:
            values[option.name] = option.check(
                self.name, given.get(option.name, option.default), values)
        if self.uses_backend:
            from ..sim.backends import resolve_backend

            values["backend"] = resolve_backend(backend)
        return list(self.enumerate_fn(**values))

    def execute(self, spec: ExperimentSpec) -> Dict[str, Any]:
        return self.execute_fn(spec)

    def render(self, results: List[ExperimentResult]) -> str:
        return self.render_fn(results)


def get_study(name: str) -> Study:
    """Resolve a study name to its ``STUDY`` descriptor."""
    if name not in STUDY_NAMES:
        raise KeyError(f"unknown study {name!r}; choose from {list(STUDY_NAMES)}")
    module = importlib.import_module(f"repro.studies.{name}")
    return module.STUDY


def execute_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    """Execute one spec via its study (the worker-side entry point)."""
    return get_study(spec.study).execute(spec)
