"""Study options: each declared once, with its default, quick value and range.

A study's ``STUDY`` descriptor holds one :class:`Option` row per option
its ``enumerate_specs`` takes.  :meth:`Study.enumerate
<repro.harness.registry.Study.enumerate>` fills every option the caller
leaves out from the row's default and checks every value against the
row; ``--quick`` reads the rows' quick values and ``repro sweep/report
--opt KEY=VALUE`` parses the text by the row's type.  A value of the
wrong type or outside the range is an :class:`OptionError` that names
the study, the option, the value and the allowed range — before any
point runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

#: a range end: a number, or the name of an option declared earlier in
#: the same table (``high="size"``: at most the study's ``size``)
Bound = Union[None, int, float, str]


class OptionError(ValueError):
    """A study option value of the wrong type or outside its range."""

    def __init__(self, study: str, name: str, value: Any, allowed: str):
        super().__init__(f"{study}: option {name}={_show(value)}: {allowed}")


def _show(value: Any) -> str:
    """*value* as ``--opt`` spells it."""
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value))
    return str(value)


def operand_bound(paper: int) -> int:
    """The ``high`` of an option that sizes an operand, from the paper's
    value for it: the smallest power of ten at least twice that value.

    Every run the paper made fits, at up to twice its scale; a value a
    few digits longer (a typo, or a size no sweep finishes) is an
    :class:`OptionError` before any point runs.
    """
    bound = 10
    while bound < 2 * paper:
        bound *= 10
    return bound


@dataclass(frozen=True)
class Option:
    """One option of one study.

    ``kind`` is ``int``, ``float`` or ``str`` (a ``str`` option takes one
    of ``choices``).  ``quick`` is the ``--quick`` value (None: the
    default serves).  ``low`` / ``high`` bound the value, both ends
    included.  A ``many`` option is a sweep axis: one or more values,
    comma-separated on the command line, a tuple in the spec.  A
    ``none`` option also takes None (``none`` on the command line).
    """

    name: str
    kind: type
    default: Any
    quick: Any = None
    low: Bound = None
    high: Bound = None
    choices: Tuple[str, ...] = ()
    many: bool = False
    none: bool = False

    def allowed(self, values: Optional[Dict[str, Any]] = None) -> str:
        """The allowed range in words, with the named bounds' values
        when *values* holds them."""
        values = values or {}

        def end(bound: Bound) -> str:
            if isinstance(bound, str) and bound in values:
                return f"{bound}={values[bound]}"
            return str(bound)

        if self.choices:
            text = "one of " + ", ".join(self.choices)
        else:
            text = "an integer" if self.kind is int else "a number"
            if self.low is not None and self.high is not None:
                text += f" in [{end(self.low)}, {end(self.high)}]"
            elif self.low is not None:
                text += f" >= {end(self.low)}"
            elif self.high is not None:
                text += f" <= {end(self.high)}"
        if self.many:
            text = "comma-separated values, each " + text
        return text + (", or none" if self.none else "")

    def parse(self, study: str, text: str) -> Any:
        """The value ``--opt NAME=TEXT`` gives, typed (not range-checked)."""
        if self.none and text.lower() == "none":
            return None
        parts = [part for part in text.split(",") if part] if self.many else [text]
        try:
            items = tuple(self.kind(part) for part in parts)
        except ValueError:
            raise OptionError(study, self.name, text, self.allowed()) from None
        return items if self.many else items[0]

    def check(self, study: str, value: Any, values: Dict[str, Any]) -> Any:
        """*value* as the study runs it (a plain int, float or str; a
        tuple of them for a sweep axis), or :class:`OptionError`.
        *values* holds the options checked before this one."""
        if value is None and self.none:
            return None
        # a sweep axis takes a scalar as its one value
        many = self.many and isinstance(value, (tuple, list, range))
        items = tuple(value) if many else (value,)
        checked = tuple(self._item(item, values) for item in items)
        if not checked or None in checked:
            raise OptionError(study, self.name, value, self.allowed(values))
        # a value repeated on an axis is one point, run once
        return tuple(dict.fromkeys(checked)) if self.many else checked[0]

    def _item(self, item: Any, values: Dict[str, Any]) -> Any:
        """One checked value, or None when it is not allowed."""
        if self.kind is str:
            return item if isinstance(item, str) and item in self.choices else None
        number = numbers.Integral if self.kind is int else numbers.Real
        if isinstance(item, bool) or not isinstance(item, number):
            return None
        item = self.kind(item)
        low, high = (values[b] if isinstance(b, str) else b
                     for b in (self.low, self.high))
        if self.kind is float and not math.isfinite(item):
            return None
        if (low is not None and item < low) or (high is not None and item > high):
            return None
        return item
