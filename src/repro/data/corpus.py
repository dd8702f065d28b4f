"""Synthetic TACO-website-style expression corpus (Table 2 substitution).

The paper's ablation uses 23,794 user-compiled algorithms from the TACO
website (3,839 distinct expression+format combinations).  That dataset is
not public, so we synthesise a corpus of the same scale and flavour:
parametrised families of real tensor-algebra expressions (contractions,
element-wise products, additions, residual-style mixes, scalar scaling)
crossed with randomised per-tensor level formats and mode orders, with a
Zipf popularity distribution over algorithms (a few workhorse kernels
dominate usage, as on the real website).

Every corpus entry is a compilable Custard input; entries whose
expression/format/schedule combination Custard rejects are discarded at
generation time, mirroring the website's "successfully compiled" filter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

VARS = ("i", "j", "k", "l")


@dataclass(frozen=True)
class CorpusEntry:
    """One distinct algorithm: an expression plus formats (and schedule).

    ``output_format`` is the user-declared result format; the TACO
    website defaults to dense outputs, so most entries are dense.
    """

    expression: str
    formats: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (tensor, level formats)
    schedule: Optional[Tuple[str, ...]] = None
    output_format: Tuple[str, ...] = ()

    def format_dict(self) -> Dict[str, List[str]]:
        return {tensor: list(fmts) for tensor, fmts in self.formats}


@dataclass
class Corpus:
    """The synthetic corpus: distinct entries with usage counts."""

    entries: List[CorpusEntry] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def distinct(self) -> int:
        return len(self.entries)


def _expression_family() -> List[str]:
    """Parametrised expression templates, in rough popularity order."""
    family: List[str] = []
    # Contractions (the workhorses).
    family += [
        "x(i) = B(i,j) * c(j)",                      # SpMV
        "X(i,j) = B(i,k) * C(k,j)",                  # SpM*SpM
        "X(i,j) = B(i,j) * C(i,k) * D(j,k)",         # SDDMM
        "X(i,j) = B(i,j,k) * c(k)",                  # TTV
        "X(i,j,k) = B(i,j,l) * C(k,l)",              # TTM
        "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",       # MTTKRP
        "chi = b(i) * c(i)",                         # dot product
        "chi = B(i,j) * C(i,j)",                     # matrix inner product
        "chi = B(i,j,k) * C(i,j,k)",                 # tensor inner product
        "x(j) = B(i,j) * c(i)",                      # transposed SpMV
    ]
    # Element-wise products.
    family += [
        "x(i) = b(i) * c(i)",
        "X(i,j) = B(i,j) * C(i,j)",
        "X(i,j,k) = B(i,j,k) * C(i,j,k)",
        "x(i) = b(i) * c(i) * d(i)",
    ]
    # Additions and subtractions.
    family += [
        "x(i) = b(i) + c(i)",
        "x(i) = b(i) - c(i)",
        "X(i,j) = B(i,j) + C(i,j)",
        "X(i,j) = B(i,j) - C(i,j)",
        "X(i,j) = B(i,j) + C(i,j) + D(i,j)",
        "X(i,j,k) = B(i,j,k) + C(i,j,k)",
    ]
    # Mixed expressions.
    family += [
        "x(i) = b(i) - C(i,j) * d(j)",               # residual
        "x(i) = alpha * b(i) + c(i)",                # axpy
        "x(i) = alpha * b(i)",                       # scale
        "X(i,j) = alpha * B(i,j)",
        "x(i) = b(i) + C(i,j) * d(j)",
        "X(i,j) = B(i,j) + C(i,k) * D(k,j)",         # gemm-accumulate
    ]
    # Identity / format conversion.
    family += [
        "x(i) = b(i)",
        "X(i,j) = B(i,j)",
        "X(i,j,k) = B(i,j,k)",
    ]
    return family


def _format_combos(order: int) -> List[Tuple[str, ...]]:
    """Level-format combinations for a tensor of *order* levels."""
    if order == 0:
        return [()]
    choices = ("compressed", "dense")
    return [combo for combo in itertools.product(choices, repeat=order)]


def _sample_formats(order: int, rng) -> Tuple[str, ...]:
    """Format tuple for one tensor, biased like real TACO-website usage:
    all-compressed and all-dense dominate, mixed (CSR-style) follows."""
    if order == 0:
        return ()
    roll = rng.random()
    if roll < 0.40:
        return ("compressed",) * order
    if roll < 0.70:
        return ("dense",) * order
    combos = _format_combos(order)
    return combos[rng.integers(0, len(combos))]


def _tensor_names(expression: str) -> List[Tuple[str, int]]:
    """(tensor, order) pairs appearing in an expression string."""
    from ..lang.parser import parse

    assignment = parse(expression)
    seen: Dict[str, int] = {}
    for access in assignment.accesses:
        seen.setdefault(access.tensor, access.order)
    return list(seen.items())


def generate_corpus(
    total: int = 23794,
    distinct_target: int = 3839,
    seed: int = 0,
    validate: bool = True,
) -> Corpus:
    """Build the synthetic corpus.

    ``distinct_target`` bounds the number of distinct algorithms (the
    paper's 3,839); ``total`` sets the weighted usage sum (23,794).  Set
    ``validate=False`` to skip the compile-check filter (faster, used by
    tests that only need corpus structure).
    """
    rng = np.random.default_rng(seed)
    expressions = _expression_family()
    entries: List[CorpusEntry] = []
    seen: set = set()
    # Specifications that failed to compile: each is tried once, whatever
    # output format it is drawn with (the compile never reads that).
    rejected: set = set()
    # Round-robin expressions with random format combos until we reach the
    # distinct target or exhaust the combination space.
    attempts = 0
    max_attempts = distinct_target * 20
    while len(entries) < distinct_target and attempts < max_attempts:
        attempts += 1
        # Zipf-ish popularity: early templates tried more often.
        index = min(
            int(rng.zipf(1.3)) - 1 + int(rng.integers(0, 3)), len(expressions) - 1
        )
        expression = expressions[index]
        formats = []
        out_order = 0
        for tensor, order in _tensor_names(expression):
            formats.append((tensor, _sample_formats(order, rng)))
        from ..lang.parser import parse as _parse
        out_order = len(_parse(expression).lhs.indices)
        # The website's default output format is dense.
        output_format = (
            ("dense",) * out_order if rng.random() < 0.65
            else ("compressed",) * out_order
        )
        entry = CorpusEntry(expression, tuple(formats), None, output_format)
        specification = (expression, entry.formats, entry.schedule)
        if entry in seen or specification in rejected:
            continue
        if validate and not _compiles(entry):
            rejected.add(specification)
            continue
        seen.add(entry)
        entries.append(entry)
    # Usage counts: Zipf over entries, scaled to the total.
    raw = rng.zipf(1.5, size=len(entries)).astype(float)
    counts = np.maximum(1, np.round(raw * total / raw.sum())).astype(int)
    # Distribute the rounding residue so the weighted sum is exact.
    diff = total - int(counts.sum())
    index = 0
    while diff != 0 and len(counts):
        step = 1 if diff > 0 else -1
        slot = index % len(counts)
        if counts[slot] + step >= 1:
            counts[slot] += step
            diff -= step
        index += 1
    return Corpus(entries, counts.tolist())


#: per-process memo for (corpus, compiled programs); the compile pass
#: dominates Table 2's cost, so harness workers that each handle several
#: removal scenarios compile the corpus exactly once
_compiled_cache: Dict[Tuple[int, int, int], Tuple[Corpus, list]] = {}


def compile_corpus_programs(corpus: Corpus) -> list:
    """Compile every corpus entry, in entry order.

    Entries that differ only in their declared ``output_format`` share
    one compiled program, so the format stays on the entry beside it:
    the Table 2 writer scenarios read it from there."""
    from ..lang import compile_expression

    return [
        compile_expression(entry.expression, formats=entry.format_dict(),
                           schedule=entry.schedule)
        for entry in corpus.entries
    ]


def compiled_corpus(
    total: int = 23794, distinct_target: int = 3839, seed: int = 0
) -> Tuple[Corpus, list]:
    """The corpus plus its compiled programs, memoized per process."""
    key = (total, distinct_target, seed)
    if key not in _compiled_cache:
        corpus = generate_corpus(total=total, distinct_target=distinct_target,
                                 seed=seed)
        _compiled_cache[key] = (corpus, compile_corpus_programs(corpus))
    return _compiled_cache[key]


def _compiles(entry: CorpusEntry) -> bool:
    from ..lang import compile_expression
    from ..lang.ast import ExpressionError

    try:
        compile_expression(
            entry.expression, formats=entry.format_dict(), schedule=entry.schedule
        )
        return True
    except ExpressionError:
        return False
