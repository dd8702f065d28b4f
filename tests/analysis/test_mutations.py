"""Mutation-based analyzer fuzz suite (satellite: analyzer sensitivity).

Each case takes one of the six known-good kernels, applies exactly one
wiring / protocol / capacity mutation to a captured graph, and asserts
the analyzer reports *exactly* the expected finding — right pass, right
code, right block and port.  The companion test asserts the unmutated
graphs produce no findings at all, so every detection below is the
mutation's doing.

Mutations run on already-captured block lists (the run that populated
them is over), so rebinding channels cannot corrupt results.
"""

import pytest

from repro.analysis import lint_blocks
from repro.analysis.targets import KERNEL_RUNNERS, capture_kernel

# ---------------------------------------------------------------------------
# capture cache: one run per kernel for the whole module
# ---------------------------------------------------------------------------

_CACHE = {}


def _graph(kernel, index=0):
    if kernel not in _CACHE:
        _CACHE[kernel] = capture_kernel(kernel)
    graphs = _CACHE[kernel]
    blocks = graphs[index].blocks
    return blocks, {b.name: b for b in blocks}


# ---------------------------------------------------------------------------
# the mutation catalogue
# ---------------------------------------------------------------------------
# Each entry: (case id, kernel, graph index, mutate(byname) -> None,
#              expected finding as (severity, pass, code, block, port)).


def _mut_spmv_kind(by):
    # crd stream wired into the multiplier's vals port
    by["mul"].rebind_input("in_b", by["scan_Bj"].outputs["out_crd"])


def _mut_spmv_depth(by):
    # pre-reduction (depth-2) values wired where depth-1 sums belong
    by["drop_zero"].rebind_input("in_val", by["mul"].outputs["out"])


def _mut_spmv_amplified(by):
    # finite row-coordinate FIFO across the amplifying scan_Bj branch
    by["scan_Bi"].outputs["out_crd"].capacity = 1


def _mut_spmv_capacity(by):
    # locate->load ref FIFO too shallow for the reconvergent mul path
    by["locate_c"].outputs["out_ref_in"].capacity = 1


def _mut_gamma_kind(by):
    # C's column coordinates wired into the multiplier's vals port
    by["mul_0"].rebind_input("in_b", by["scan_Cj_0"].outputs["out_crd"])


def _mut_gamma_depth(by):
    # inner (depth-2) B coordinates wired into the k-level intersect
    by["intersect_k_0"].rebind_input("crd1", by["fan_bi"].outputs["out0"])


def _mut_sddmm_kind(by):
    # T's coordinate stream wired into the multiplier's vals port
    by["mul_t0_0"].rebind_input("in_b", by["scan_T_0_1_j"].outputs["out_crd"])


def _mut_sddmm_capacity(by):
    # B-side ref FIFO under-provisioned for the vals_T/mul reconvergence
    by["intersect_j_t0"].outputs["out_ref0_0"].capacity = 1


def _mut_spmm_kind(by):
    # column coordinates wired into the reducer's value port
    by["reduce_k_t0"].rebind_input(
        "in_val", by["fan:scan_C_0_1_j.crd"].outputs["out0"])


def _mut_spmm_amplified(by):
    # finite crd FIFO across the amplifying repeat_B branch to the reducer
    by["fan:scan_C_0_1_j.crd"].outputs["out1"].capacity = 1


def _mut_outerspace_kind(by):
    # repeat-signal coordinates wired into the multiplier's vals port
    by["mul"].rebind_input("in_a", by["fan_cj"].outputs["out0"])


def _mut_outerspace_depth(by):
    # depth-2 row coordinates wired into the depth-1 k-level intersect
    by["intersect_k"].rebind_input("crd1", by["fan_bi"].outputs["out1"])


def _mut_elementwise_kind(by):
    # intersection coordinates wired into the multiplier's vals port
    by["mul_t0_0"].rebind_input("in_b", by["intersect_i_t0"].outputs["out_crd"])


def _mut_elementwise_capacity(by):
    # b-side ref FIFO under-provisioned for the vals_c/mul reconvergence
    by["intersect_i_t0"].outputs["out_ref0_0"].capacity = 1


def _mut_elementwise_cycle(by):
    # drop the scanner's skip-channel credit: the backwards skip edge
    # from the intersect becomes blocking and closes a real cycle
    by["scan_b_0_0_i"].nonblocking_inputs = ()


CASES = [
    ("spmv-kind", "spmv", 0, _mut_spmv_kind,
     ("error", "protocol", "kind-mismatch", "mul", "in_b")),
    ("spmv-depth", "spmv", 0, _mut_spmv_depth,
     ("error", "protocol", "depth-mismatch", "drop_zero", "in_val")),
    ("spmv-amplified", "spmv", 0, _mut_spmv_amplified,
     ("warning", "deadlock", "amplified-reconvergence",
      "drop_zero", "in_crd")),
    ("spmv-capacity", "spmv", 0, _mut_spmv_capacity,
     ("error", "deadlock", "insufficient-capacity", "vals_B", "in_ref")),
    ("gamma-kind", "gamma", 0, _mut_gamma_kind,
     ("error", "protocol", "kind-mismatch", "mul_0", "in_b")),
    ("gamma-depth", "gamma", 0, _mut_gamma_depth,
     ("error", "protocol", "depth-mismatch", "intersect_k_0", "crd1")),
    ("sddmm-kind", "sddmm", 1, _mut_sddmm_kind,
     ("error", "protocol", "kind-mismatch", "mul_t0_0", "in_b")),
    ("sddmm-capacity", "sddmm", 1, _mut_sddmm_capacity,
     ("error", "deadlock", "insufficient-capacity", "vals_B_0_0",
      "in_ref")),
    ("spmm-kind", "spmm", 0, _mut_spmm_kind,
     ("error", "protocol", "kind-mismatch", "reduce_k_t0", "in_val")),
    ("spmm-amplified", "spmm", 0, _mut_spmm_amplified,
     ("warning", "deadlock", "amplified-reconvergence",
      "reduce_k_t0", "in_crd")),
    ("outerspace-kind", "outerspace", 0, _mut_outerspace_kind,
     ("error", "protocol", "kind-mismatch", "mul", "in_a")),
    ("outerspace-depth", "outerspace", 0, _mut_outerspace_depth,
     ("error", "protocol", "depth-mismatch", "intersect_k", "crd1")),
    ("elementwise-kind", "elementwise", 2, _mut_elementwise_kind,
     ("error", "protocol", "kind-mismatch", "mul_t0_0", "in_b")),
    ("elementwise-capacity", "elementwise", 2, _mut_elementwise_capacity,
     ("error", "deadlock", "insufficient-capacity", "vals_b_0_0", "in_ref")),
    ("elementwise-cycle", "elementwise", 2, _mut_elementwise_cycle,
     ("error", "deadlock", "dependency-cycle", "scan_b_0_0_i", "")),
]


class TestMutationDetection:
    @pytest.mark.parametrize(
        "kernel,index,mutate,expected",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_mutation_yields_exactly_the_expected_finding(
            self, kernel, index, mutate, expected):
        blocks, by = _graph(kernel, index)
        originals = {}
        try:
            # snapshot the bits the mutations touch so the cached graph
            # stays pristine for the other cases
            for block in blocks:
                originals[block.name] = (
                    dict(block.inputs),
                    {port: chan.capacity
                     for port, chan in block.outputs.items()},
                    block.nonblocking_inputs,
                )
            mutate(by)
            report = lint_blocks(blocks)
            severity, pass_name, code, block, port = expected
            assert len(report.findings) == 1, [
                f.render() for f in report.findings]
            finding = report.findings[0]
            assert finding.severity == severity
            assert finding.pass_name == pass_name
            assert finding.code == code
            assert finding.block == block
            assert finding.port == port
        finally:
            for block in blocks:
                ins, caps, nonblocking = originals[block.name]
                for pname, chan in ins.items():
                    if block.inputs.get(pname) is not chan:
                        block.rebind_input(pname, chan)
                for pname, cap in caps.items():
                    block.outputs[pname].capacity = cap
                block.nonblocking_inputs = nonblocking

    def test_case_catalogue_covers_all_six_kernels(self):
        assert {case[1] for case in CASES} == set(KERNEL_RUNNERS)
        assert len(CASES) >= 12


class TestCleanBaselines:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_RUNNERS))
    def test_unmutated_kernel_graphs_have_no_findings(self, kernel):
        if kernel not in _CACHE:
            _CACHE[kernel] = capture_kernel(kernel)
        for graph in _CACHE[kernel]:
            report = lint_blocks(graph.blocks, rate=True)
            assert report.findings == [], [
                f"{graph.label}: {f.render()}" for f in report.findings]
            assert report.meta["deadlock"]["proved_free"]
