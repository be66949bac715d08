"""What ``detchain check``'s rows catch: the mutation map, the rows that go
over their bounds when one entry of one stage's output is off by 1e-7
relative (docs/conventions.md, "What each row catches"), and the
factorization rows against their stored-block reference."""

from dataclasses import replace

import numpy as np
import pytest

from detchain import DetchainError, StateError, WeightSet, biortho, check, kernels
from detchain.instances import random_discrete_instance
from detchain.kernels import BlockKernel, build_g, dualize, factorization_residual

from .conftest import split_cases
from .factorization_reference import stored_factorization_residual


def bumped(array):
    """A read-only copy of the array with its largest |entry| raised by 1e-7
    relative."""
    out = np.array(array, dtype=float)
    out[np.unravel_index(np.argmax(np.abs(out)), out.shape)] *= 1.0 + 1e-7
    out.setflags(write=False)
    return out


def on_output(module, name, mutate):
    """A patch that passes every result of ``module.name`` through ``mutate``."""
    def patch(mp):
        real = getattr(module, name)
        mp.setattr(module, name, lambda *args: mutate(real(*args)))
    return patch


def in_level(field, level):
    """Mutate the dual bases' ``field`` (psi or phi) on one level (1-based)."""
    def mutate(bases):
        values = list(getattr(bases, field))
        values[level - 1] = bumped(values[level - 1])
        return replace(bases, **{field: tuple(values)})
    return mutate


def in_factor(name):
    """Mutate the PLU factor ``name`` past its own reconstruction check, as
    dual_bases reads it."""
    def mutate(dec):
        object.__setattr__(dec, name, bumped(getattr(dec, name)))
        return dec
    return mutate


def in_matrix(kernel):
    """build_K's or build_g's kernel with one stored entry bumped and its
    source kept."""
    return BlockKernel(matrix=bumped(kernel.matrix), grids=kernel.grids,
                       checked=kernel.checked, rank=kernel.rank, source=kernel.source)


def in_left_factor(via):
    """kernel_via_inverse's kernel with one entry of its walked f bumped: check
    reads the factors, not the matrix."""
    left, right = via.source
    left = bumped(left)
    return BlockKernel(matrix=lambda: left.T @ right, grids=via.grids, checked=False,
                       rank=via.rank, source=(left, right))


STAGES = {
    "pairing a1": on_output(biortho, "pairing_expressions", lambda a: (bumped(a[0]), a[1])),
    "pairing am": on_output(biortho, "pairing_expressions", lambda a: (a[0], bumped(a[1]))),
    "L": on_output(biortho, "plu_decompose", in_factor("L")),
    "U": on_output(biortho, "plu_decompose", in_factor("U")),
    "psi level 2": on_output(kernels, "dual_bases", in_level("psi", 2)),
    "phi level 2": on_output(kernels, "dual_bases", in_level("phi", 2)),
    "build_K": on_output(kernels, "build_K", in_matrix),
    "build_g": on_output(kernels, "build_g", in_matrix),
    "kernel_via_inverse": on_output(check, "kernel_via_inverse", in_left_factor),
}


def check_outcome(tables, ws, patch, record):
    """The names of check's rows over their bounds, or the refusal as
    "Class: message", with ``patch`` applied while ``record`` is dualized
    and, for the dual record, while check judges its rows (its own stages
    run at w)."""
    records = {}
    try:
        for label, weights in (("plain", WeightSet.zeros(tables.grids)), ("dual", ws)):
            with pytest.MonkeyPatch.context() as mp:
                if patch and label == record:
                    patch(mp)
                records[label] = dualize(tables, weights)
        with pytest.MonkeyPatch.context() as mp:
            if patch and record == "dual":
                patch(mp)
            rows = check.check_rows(records["plain"], records["dual"], 1e-10)
    except DetchainError as refusal:
        return f"{type(refusal).__name__}: {refusal}"
    return {name for name, value, bound in rows if not value <= bound}


GAP = "CompositionInconsistency: level-1 and level-m evaluations"
NET = "CompositionInconsistency: biorthogonality residual"
PLAIN_K = {"identity_resolvent", "identity_checked_product", "factorization_plain"}
DUAL_K = {"identity_resolvent", "identity_checked_product", "factorization_dual",
          "construction_invariance"}
TRANSFERS = {"identity_resolvent", "identity_checked_product",
             "identity_transfer_transfer", "transfer_resolvent"}

# (stage, record, outcome); "both" mutates the chain tables every record reads
MUTATION_MAP = [
    ("none", "both", set()),
    ("g_1 table", "both", set()),
    ("pairing a1", "plain", GAP),
    ("pairing a1", "dual", GAP),
    ("pairing am", "plain", GAP),
    ("pairing am", "dual", GAP),
    ("L", "plain", NET),
    ("L", "dual", NET),
    ("U", "plain", NET),
    ("U", "dual", NET),
    ("psi level 2", "plain", PLAIN_K | {"identity_kernel_kernel"}),
    ("psi level 2", "dual", DUAL_K | {"identity_kernel_kernel", "identity_transfer_kernel"}),
    ("phi level 2", "plain", PLAIN_K | {"identity_kernel_kernel", "identity_kernel_transfer"}),
    ("phi level 2", "dual", DUAL_K | {"identity_kernel_kernel"}),
    ("build_K", "plain", PLAIN_K | {"identity_kernel_transfer"}),
    ("build_K", "dual", DUAL_K | {"identity_transfer_kernel"}),
    ("build_g", "plain", TRANSFERS | {"factorization_plain", "identity_transfer_kernel"}),
    ("build_g", "dual", TRANSFERS | {"factorization_dual", "identity_kernel_transfer"}),
    ("kernel_via_inverse", "dual", {"construction_invariance"}),
]


@pytest.mark.parametrize("stage, record, outcome", MUTATION_MAP,
                         ids=[f"{stage}-{record}" for stage, record, _ in MUTATION_MAP])
def test_mutation_map(stage, record, outcome):
    """On one three-level chain, a 1e-7 relative error in the largest entry of
    one stage's output puts exactly these rows over their bounds, or is
    refused before any row is judged. No row reads the chain tables against
    anything outside them, so a wrong g_j is a different chain and passes;
    the pairing_expressions and biorthogonality rows catch nothing, since
    dual_bases refuses a gap or a residual this large first."""
    tables, ws = random_discrete_instance(47, m=3, N=2)
    if stage == "g_1 table":
        tables = replace(tables, g_values=(bumped(tables.g_values[0]),) + tables.g_values[1:])
    got = check_outcome(tables, ws, STAGES.get(stage), record)
    if isinstance(outcome, str):
        assert isinstance(got, str) and got.startswith(outcome), got
    else:
        assert got == outcome


def test_factorization_meets_its_stored_block_reference(tmp_path):
    """The residual from K's own factors and the stored-block reference both
    stay within check's bound 1e-11 max(1, max|K|) on both records of every
    split case, and a kernel without dual bases is refused."""
    ratios = {"factors": [], "stored": []}
    for tables, ws in split_cases(tmp_path):
        for weights in (WeightSet.zeros(tables.grids), ws):
            record = dualize(tables, weights)
            bound = 1e-11 * max(1.0, record.K.max_abs())
            for form, residual in (("factors", factorization_residual),
                                   ("stored", stored_factorization_residual)):
                ratios[form].append(residual(record.K, record.g, tables, weights) / bound)
    assert all(r <= 1.0 for v in ratios.values() for r in v), \
        {form: max(v) for form, v in ratios.items()}
    tables, ws = random_discrete_instance(47, m=3, N=2)
    K = dualize(tables, ws).K
    bare = BlockKernel(matrix=K.matrix, grids=K.grids, checked=False, rank=K.rank)
    with pytest.raises(StateError, match="keeps its dual bases"):
        factorization_residual(bare, build_g(tables, ws), tables, ws)
