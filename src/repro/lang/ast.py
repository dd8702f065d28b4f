"""Tensor index notation AST (paper section 2.1).

Expressions are normalised to a *sum of terms*: each term is a signed
product of tensor accesses, named scalars (order-0 accesses), and numeric
literals.  This covers the whole of Table 1 — contractions, compound
products like SDDMM and MTTKRP, residual-style mixed expressions, and
pure additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class ExpressionError(ValueError):
    """Raised for malformed or unsupported tensor index expressions."""


@dataclass(frozen=True)
class Access:
    """One tensor access ``T(i, j, ...)``; order-0 accesses are scalars."""

    tensor: str
    indices: Tuple[str, ...] = ()

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def is_scalar(self) -> bool:
        return not self.indices

    def __str__(self) -> str:
        if self.is_scalar:
            return self.tensor
        return f"{self.tensor}({','.join(self.indices)})"


@dataclass
class Term:
    """A signed product: ``sign * coefficient * access * access * ...``."""

    accesses: List[Access] = field(default_factory=list)
    sign: int = 1
    coefficient: float = 1.0

    @property
    def vars(self) -> Tuple[str, ...]:
        """Index variables of the term, in first-appearance order."""
        seen: List[str] = []
        for access in self.accesses:
            for var in access.indices:
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def __str__(self) -> str:
        parts = [str(a) for a in self.accesses]
        if self.coefficient != 1.0:
            parts.insert(0, repr(self.coefficient))
        body = " * ".join(parts) if parts else repr(self.coefficient)
        return ("-" if self.sign < 0 else "") + body


@dataclass
class Assignment:
    """``lhs = term_1 +/- term_2 +/- ...`` in sum-of-products form."""

    lhs: Access
    terms: List[Term]

    def __post_init__(self):
        if not self.terms:
            raise ExpressionError("assignment needs at least one term")
        lhs_vars = set(self.lhs.indices)
        if len(lhs_vars) != len(self.lhs.indices):
            raise ExpressionError(f"repeated index variable on lhs {self.lhs}")
        all_rhs = set().union(*(set(t.vars) for t in self.terms))
        missing = lhs_vars - all_rhs
        if missing:
            raise ExpressionError(
                f"lhs variables {sorted(missing)} never appear on the rhs"
            )

    @property
    def all_vars(self) -> Tuple[str, ...]:
        """Every index variable, in first-appearance order (lhs first)."""
        seen: List[str] = list(self.lhs.indices)
        for term in self.terms:
            for var in term.vars:
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    @property
    def accesses(self) -> List[Access]:
        return [a for t in self.terms for a in t.accesses]

    @property
    def input_tensors(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for access in self.accesses:
            if access.tensor not in seen:
                seen.append(access.tensor)
        return tuple(seen)

    def __str__(self) -> str:
        body = ""
        for i, term in enumerate(self.terms):
            if i == 0:
                body = str(term)
            else:
                body += f" - {str(term).lstrip('-')}" if term.sign < 0 else f" + {term}"
        return f"{self.lhs} = {body}"


def validate_for_lowering(assignment: Assignment) -> None:
    """Checks shared by the parser and the lowering pass."""
    for access in assignment.accesses:
        if len(set(access.indices)) != len(access.indices):
            raise ExpressionError(
                f"repeated index variable within access {access} is not supported"
            )
    lhs_vars = set(assignment.lhs.indices)
    for term in assignment.terms:
        if not lhs_vars <= set(term.vars) and lhs_vars:
            raise ExpressionError(
                f"term {term} must mention every lhs variable "
                f"(dense broadcast of results is not supported)"
            )
