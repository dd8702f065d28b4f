"""The format language (paper section 5 and Chou et al. level formats).

Each tensor gets a per-level format tuple and a mode order, mirroring the
paper's ``B=({comp.,comp.}, {mode0,mode1})`` notation.  The mode order
maps storage levels to argument positions of the access: a transposed
matrix operand is expressed as ``mode_order=(1, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .ast import Access, ExpressionError

LEVEL_FORMATS = ("compressed", "dense", "bitvector")
_ABBREV = {
    "comp": "compressed",
    "compressed": "compressed",
    "c": "compressed",
    "s": "compressed",  # "sparse"
    "dense": "dense",
    "uncomp": "dense",
    "uncompressed": "dense",
    "d": "dense",
    "bv": "bitvector",
    "bitvector": "bitvector",
}


def canonical_format(name: str) -> str:
    key = name.strip().lower().rstrip(".")
    if key not in _ABBREV:
        raise ExpressionError(
            f"unknown level format {name!r} (known: {sorted(set(_ABBREV))})"
        )
    return _ABBREV[key]


@dataclass(frozen=True)
class TensorFormat:
    """Per-level formats plus the storage mode order of one tensor."""

    formats: Tuple[str, ...]
    mode_order: Tuple[int, ...]

    @classmethod
    def make(cls, formats: Sequence[str], mode_order: Optional[Sequence[int]] = None):
        formats = tuple(canonical_format(f) for f in formats)
        order = tuple(mode_order) if mode_order is not None else tuple(
            range(len(formats))
        )
        if sorted(order) != list(range(len(formats))):
            raise ExpressionError(f"mode order {order} is not a permutation")
        return cls(formats, order)

    @classmethod
    def compressed(cls, order: int) -> "TensorFormat":
        return cls.make(["compressed"] * order)

    @property
    def order(self) -> int:
        return len(self.formats)

    def level_var(self, access: Access, depth: int) -> str:
        """Index variable iterated by storage level *depth* of *access*."""
        return access.indices[self.mode_order[depth]]

    def storage_vars(self, access: Access) -> Tuple[str, ...]:
        """Access variables in storage (level) order."""
        return tuple(access.indices[m] for m in self.mode_order)


class FormatSpec:
    """Formats for every tensor in an expression; defaults to all-compressed."""

    def __init__(self, formats: Optional[Dict[str, TensorFormat]] = None):
        self.formats: Dict[str, TensorFormat] = dict(formats or {})

    def set(self, tensor: str, formats: Sequence[str], mode_order=None) -> "FormatSpec":
        self.formats[tensor] = TensorFormat.make(formats, mode_order)
        return self

    def for_access(self, access: Access) -> TensorFormat:
        if access.tensor in self.formats:
            fmt = self.formats[access.tensor]
            if fmt.order != access.order:
                raise ExpressionError(
                    f"format for {access.tensor!r} has {fmt.order} levels but the "
                    f"access {access} has order {access.order}"
                )
            return fmt
        return TensorFormat.compressed(access.order)

    @classmethod
    def coerce(cls, value) -> "FormatSpec":
        """Accept a FormatSpec, a dict of formats, or None."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        spec = cls()
        for tensor, fmt in value.items():
            if isinstance(fmt, TensorFormat):
                spec.formats[tensor] = fmt
            elif (
                isinstance(fmt, (tuple, list))
                and len(fmt) == 2
                and isinstance(fmt[0], (tuple, list))
            ):
                # ("formats", mode_order) pair, the paper's two-part notation
                spec.set(tensor, fmt[0], fmt[1])
            else:
                spec.set(tensor, fmt)
        return spec
