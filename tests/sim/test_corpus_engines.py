"""Every program of the corpus family runs alike on every engine.

Table 2's corpus draws its programs from one family of expression
templates (``repro.data.corpus``), each with any level formats, any
loop order the formats admit, and coordinate skipping on or off.  The
window engines decide their plane once, before the run, and no block
leaves it mid-run; this property is the guard of that rule over the
family: a drawn program, run on small random operands, gives
``cycle``'s cycles, per-block activity and per-channel token counts on
``timed-batch`` and ``compiled``, and raises on none of them.
"""

from itertools import permutations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.corpus import _expression_family, _format_combos, _tensor_names
from repro.lang import compile_expression
from repro.lang.ast import ExpressionError
from repro.lang.parser import parse
from repro.sim import graph_token_counts
from repro.studies.table1 import _random_inputs

from blockkit import TIMED

TEMPLATES = _expression_family()


@st.composite
def programs(draw):
    """A compiled program of the family and an operand seed."""
    expression = draw(st.sampled_from(TEMPLATES))
    formats = {tensor: draw(st.sampled_from(_format_combos(order)))
               for tensor, order in _tensor_names(expression)}
    skipping = draw(st.booleans())
    variables = sorted({v for access in parse(expression).accesses
                        for v in access.indices})
    compiled = []
    for order in permutations(variables):
        try:
            compiled.append(compile_expression(expression, formats, order, skipping))
        except ExpressionError:  # the order conflicts with a storage order
            continue
    assume(compiled)
    return draw(st.sampled_from(compiled)), draw(st.integers(0, 2**16))


def outcome(program, inputs, backend):
    result = program.run(inputs, backend=backend)
    return (result.cycles, result.report.block_activity(),
            graph_token_counts(result.bound.blocks))


@settings(max_examples=150)
@given(drawn=programs())
def test_corpus_program_runs_alike_on_every_engine(drawn):
    program, seed = drawn
    inputs = _random_inputs(program, seed)
    want = outcome(program, inputs, "cycle")
    for backend in TIMED:
        assert outcome(program, inputs, backend) == want, backend
