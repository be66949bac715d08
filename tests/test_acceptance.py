"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with -s to see them on
success). The shared instance set holds the three bundled discrete fixtures
plus fifty seeded random instances redrawn until both pairing matrices have
condition number at most 1e8.
"""

import time

import numpy as np
import pytest

from detchain import (
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    correlation,
    dual_bases,
    enumerate_configurations,
    fredholm_det,
    g_resolvent_residual,
    gap_generating_function,
    integrate,
    janossy,
    make_gauss_legendre_grid,
    oracle_correlation,
    oracle_counts,
    oracle_gap,
    oracle_janossy,
    pairing_expressions,
    theorem2_residuals,
)
from detchain.cli import parse_instance
from detchain.instances import gauss_chain_config, random_discrete_instance
from detchain.sampler import empirical_gap, sample

from .conftest import BUNDLED_DISCRETE, load_bundled
from .density_forms import joint_density

RANDOM_INSTANCES = 50


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def build_entry(name, tables, weights):
    zeros = WeightSet.zeros(tables.grids)
    t0 = time.perf_counter()
    residuals = theorem2_residuals(tables, weights)
    elapsed = time.perf_counter() - t0
    plain = dual_bases(tables, zeros)
    dualized = dual_bases(tables, weights)
    checked = check_kernel(build_K(plain), build_g(tables, zeros))
    pair = {}
    for label, ws in (("plain", zeros), ("dual", weights)):
        a1, am = pairing_expressions(tables, ws)
        pair[label] = (float(np.max(np.abs(a1 - am))),
                       max(float(np.max(np.abs(a1))), np.finfo(float).tiny))
    return {
        "name": name,
        "tables": tables,
        "weights": weights,
        "residuals": residuals,
        "g_resolvent": g_resolvent_residual(tables, weights),
        "checked_norm": checked.max_abs(),
        "bio": (plain.biorthogonality_residual, dualized.biorthogonality_residual),
        "pairing": pair,
        "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def instance_set():
    entries = []
    for name in BUNDLED_DISCRETE:
        inst = load_bundled(name)
        entries.append(build_entry(name, inst.tables, inst.weights))
    for i in range(RANDOM_INSTANCES):
        tables, weights = random_discrete_instance(1000 + i)
        entries.append(build_entry(f"random_{i}", tables, weights))
    return entries


def test_criterion_1_resolvent_identity(instance_set):
    worst = 0.0
    for entry in instance_set:
        bound = 1e-10 * max(1.0, entry["checked_norm"])
        worst = max(worst, entry["residuals"].resolvent / bound)
    seconds = sum(e["seconds"] for e in instance_set)
    ok = worst <= 1.0 and seconds < 10.0
    report("criterion 1 (resolvent identity, 53 instances)", ok,
           f"worst residual at {worst:.2e} of bound, residual sweep {seconds:.2f}s")


def test_criterion_2_identity_suite(instance_set):
    worst = 0.0
    for entry in instance_set:
        res = entry["residuals"]
        bound = 1e-10 * res.scale
        values = [res.transfer_transfer, res.kernel_kernel, res.transfer_kernel,
                  res.kernel_transfer, res.checked_product, entry["g_resolvent"]]
        worst = max(worst, max(values) / bound)
    report("criterion 2 (composition identity suite)", worst <= 1.0,
           f"worst residual at {worst:.2e} of bound")


def test_criterion_3_biorthogonality_and_invariance(instance_set):
    worst_bio = max(max(e["bio"]) for e in instance_set)
    worst_inv = 0.0
    rng = np.random.default_rng(99)
    for name in BUNDLED_DISCRETE:
        inst = load_bundled(name)
        bases = dual_bases(inst.tables, inst.weights)
        kernel = build_K(bases)
        scale = max(1.0, kernel.max_abs())
        flips = np.where(rng.random(inst.tables.N) < 0.5, -1.0, 1.0)
        perm = rng.permutation(inst.tables.N)
        for psi, phi in (
            (tuple(flips[:, None] * p for p in bases.psi),
             tuple(flips[:, None] * p for p in bases.phi)),
            (tuple(p[perm] for p in bases.psi), tuple(p[perm] for p in bases.phi)),
        ):
            other = type(bases)(psi=psi, phi=phi, decomposition=bases.decomposition,
                                weight_set=bases.weight_set, tables=bases.tables,
                                biorthogonality_residual=bases.biorthogonality_residual,
                                expression_gap=bases.expression_gap)
            rebuilt = build_K(other)
            diff = max(
                float(np.max(np.abs(kernel.block(i, j) - rebuilt.block(i, j))))
                for i in range(1, inst.tables.m + 1)
                for j in range(1, inst.tables.m + 1)
            )
            worst_inv = max(worst_inv, diff / (1e-12 * scale))
    ok = worst_bio <= 1e-10 and worst_inv <= 1.0
    report("criterion 3 (biorthogonality + invariances)", ok,
           f"max pairing residual {worst_bio:.2e}, invariance at {worst_inv:.2e} of bound")


def test_criterion_4_pairing_dual_expressions(instance_set):
    worst = 0.0
    for entry in instance_set:
        for diff, scale in entry["pairing"].values():
            worst = max(worst, diff / (1e-11 * scale))
    report("criterion 4 (pairing dual expressions)", worst <= 1.0,
           f"worst relative disagreement at {worst:.2e} of bound")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    worst = {"gap": 0.0, "janossy": 0.0, "correlation": 0.0, "counts": 0.0,
             "total": 0.0}
    for name in BUNDLED_DISCRETE:
        inst = load_bundled(name)
        zeros = WeightSet.zeros(inst.tables.grids)
        bases = dual_bases(inst.tables, zeros)
        kernel = check_kernel(build_K(bases), build_g(inst.tables, zeros))
        enum = enumerate_configurations(inst.tables, bases=bases)
        assert enum.prob.size <= 100_000

        det = fredholm_det(kernel, inst.weights)
        worst["gap"] = max(worst["gap"], abs(det - oracle_gap(enum, inst.weights)))
        lib = janossy(kernel, inst.weights, inst.task.points)
        ora = oracle_janossy(enum, inst.weights, inst.task.points)
        worst["janossy"] = max(worst["janossy"], abs(lib - ora))
        lib = correlation(kernel, inst.task.points)
        ora = oracle_correlation(enum, inst.task.points)
        worst["correlation"] = max(worst["correlation"], abs(lib - ora))

        dist = gap_generating_function(kernel, inst.weight_intervals)
        ora_dist = oracle_counts(enum, inst.weight_intervals)
        keys = set(dist.probabilities) | set(ora_dist.probabilities)
        worst["counts"] = max(worst["counts"], max(
            abs(dist.probability(k) - ora_dist.probability(k)) for k in keys))
        worst["total"] = max(worst["total"], abs(dist.total - 1.0))
    seconds = time.perf_counter() - t0
    ok = (worst["gap"] <= 1e-10 and worst["janossy"] <= 1e-10
          and worst["correlation"] <= 1e-10 and worst["counts"] <= 1e-8
          and worst["total"] <= 1e-8 and seconds < 60.0)
    report("criterion 5 (oracle equivalence)", ok,
           f"gap {worst['gap']:.1e}, janossy {worst['janossy']:.1e}, "
           f"correlation {worst['correlation']:.1e}, counts {worst['counts']:.1e}, "
           f"{seconds:.1f}s")


def test_criterion_6_density_form_consistency():
    worst = 0.0
    for name in BUNDLED_DISCRETE:
        inst = load_bundled(name)
        bases = dual_bases(inst.tables, WeightSet.zeros(inst.tables.grids))
        n = inst.tables.N
        configs = [
            [list(range(n)) for _ in range(inst.tables.m)],
            [list(range(g.size - n, g.size)) for g in inst.tables.grids],
        ]
        for config in configs:
            v1, v2 = joint_density(bases, inst.tables, config)
            worst = max(worst, abs(v1 - v2) / max(abs(v1), 1e-300))
    report("criterion 6 (density form consistency)", worst <= 1e-10,
           f"worst relative disagreement {worst:.2e}")


def test_criterion_7_indicator_specialization():
    worst = 0.0
    for i in range(RANDOM_INSTANCES):
        tables, weights = random_discrete_instance(2000 + i, indicator=True)
        zeros = WeightSet.zeros(tables.grids)
        plain = dual_bases(tables, zeros)
        checked = check_kernel(build_K(plain), build_g(tables, zeros))
        res = theorem2_residuals(tables, weights)
        bound = 1e-10 * max(1.0, checked.max_abs())
        worst = max(worst, res.resolvent / bound)
    report("criterion 7 (indicator-weight specialization)", worst <= 1.0,
           f"worst residual at {worst:.2e} of bound over {RANDOM_INSTANCES} instances")


def test_criterion_8_sampler_agreement():
    t0 = time.perf_counter()
    inst = load_bundled("discrete_m2n2")
    cfg = inst.task.sampler
    assert cfg.steps - cfg.resolved_burn_in == 200_000
    zeros = WeightSet.zeros(inst.tables.grids)
    bases = dual_bases(inst.tables, zeros)
    kernel = check_kernel(build_K(bases), build_g(inst.tables, zeros))
    det = fredholm_det(kernel, inst.weights)
    stream = sample(inst.tables, cfg, bases=bases)
    estimate, stderr = empirical_gap(stream, inst.weights)
    again = sample(inst.tables, cfg, bases=bases)
    identical = [c.nodes for c in stream] == [c.nodes for c in again]
    seconds = time.perf_counter() - t0
    ok = (stderr > 0 and abs(estimate - det) <= 3 * stderr and identical
          and seconds < 30.0)
    report("criterion 8 (sampler statistical check)", ok,
           f"estimate {estimate:.5f} vs det {det:.5f} "
           f"({abs(estimate - det) / stderr:.2f} stderr), reproducible={identical}, "
           f"{seconds:.1f}s")


def test_criterion_9_quadrature_sanity():
    grid = make_gauss_legendre_grid((-1.5, 2.0), 9)
    worst_quad = 0.0
    for degree in range(0, 18):  # exact through 2n - 1
        exact = (2.0 ** (degree + 1) - (-1.5) ** (degree + 1)) / (degree + 1)
        value = integrate(grid, grid.nodes ** degree)
        worst_quad = max(worst_quad, abs(value - exact) / max(1.0, abs(exact)))

    dets = {}
    for n in (24, 32):
        inst = parse_instance(gauss_chain_config(n))
        bases = dual_bases(inst.tables, WeightSet.zeros(inst.tables.grids))
        kernel = check_kernel(build_K(bases),
                              build_g(inst.tables, WeightSet.zeros(inst.tables.grids)))
        dets[n] = fredholm_det(kernel, inst.weights)
    drift = abs(dets[24] - dets[32])
    ok = worst_quad <= 1e-13 and drift <= 1e-8
    report("criterion 9 (quadrature sanity)", ok,
           f"GL exactness {worst_quad:.2e}, det drift {drift:.2e} "
           f"(n=24: {dets[24]:.12f}, n=32: {dets[32]:.12f})")
