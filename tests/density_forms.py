"""The two forms of the joint density, for the tests.

The product form of a configuration's density is the endpoint and transfer
determinants times its node masses; the determinant form is the checked
kernel's determinant on the configuration. ``joint_density`` sets the two
side by side, each normalized by its exhaustively measured total mass, and
``probnm_total_mass`` measures the determinant form's total.
"""

import numpy as np

from detchain import (
    ShapeError,
    WeightSet,
    build_K,
    build_g,
    check_kernel,
    correlation,
    enumerate_configurations,
)
from detchain.oracle import _EINSUM_AXES


def probnm_total_mass(enum, kernel) -> float:
    """Sum over all configurations of the sampled-kernel determinant times the
    configuration's node masses.

    Measures the normalization linking the determinant form of the joint
    density to the product form; over N-subsets the exact value is 1.
    """
    m, n = enum.m, enum.N
    sizes = [len(t) for t in enum.tuples]
    dim = m * n
    total_cfg = int(np.prod(sizes))
    if total_cfg * dim * dim > 200_000_000:
        raise ValueError("instance too large for the determinant-form sweep")
    shape = tuple(sizes)
    # per configuration, the indices of its m * N nodes in the kernel's matrix
    parts = []
    for level, (tup, offset) in enumerate(zip(enum.tuples, kernel.offsets)):
        axes = [1] * m + [n]
        axes[level] = sizes[level]
        parts.append(np.broadcast_to((tup + offset).reshape(axes), shape + (n,)))
    idx = np.concatenate(parts, axis=-1)
    big = kernel.matrix[idx[..., :, None], idx[..., None, :]]
    dets = np.linalg.det(big.reshape(-1, dim, dim)).reshape(shape)
    mass_axes = _EINSUM_AXES[:m]
    spec = mass_axes + "," + ",".join(mass_axes) + "->"
    masses = [g.weights[t].prod(axis=1) for g, t in zip(enum.tables.grids, enum.tuples)]
    return float(np.einsum(spec, dets, *masses))


def joint_density(bases, tables, config) -> tuple[float, float]:
    """Joint density of a full configuration, evaluated along both routes.

    Returns ``(product_form, determinant_form)``: the normalized product of
    endpoint and transfer determinants, and the checked-kernel determinant
    normalized by its own exhaustively measured total mass. The two agree on
    any consistent instance; their difference is the working form of the
    equivalence between the two density formulas.
    """
    if not bases.is_plain():
        raise ValueError("joint_density expects the plain (zero-weight) dual bases")
    m, n = tables.m, tables.N
    cfg = [tuple(int(p) for p in level) for level in config]
    if len(cfg) != m or any(len(level) != n for level in cfg):
        raise ShapeError(f"configuration must hold {n} node indices on each of "
                         f"{m} levels")
    enum = enumerate_configurations(tables, bases=bases)
    value = float(np.linalg.det(bases.psi[0][:, cfg[0]]))
    value *= float(np.linalg.det(bases.phi[m - 1][:, cfg[m - 1]]))
    for j in range(m - 1):
        value *= float(np.linalg.det(tables.g_values[j][np.ix_(cfg[j + 1], cfg[j])]))
    product_form = value / enum.total_mass

    zeros = WeightSet.zeros(tables.grids)
    Kc = check_kernel(build_K(bases), build_g(tables, zeros))
    return product_form, correlation(Kc, cfg) / probnm_total_mass(enum, Kc)
