import math
import warnings

import numpy as np
import pytest

import oracles
from pfcurv import (
    DUAL,
    SIMPLICIAL,
    Cochain,
    MetricComplex,
    UnsupportedPair,
    ZeroMeasureElement,
    build_complex,
    coderivative,
    exterior_derivative,
    hodge,
    l2_inner_product,
    l2_measure,
    laplacian,
    transfer_density,
)
from pfcurv.suites import dec_checks


def test_cochain_length_validation(ico):
    with pytest.raises(ValueError):
        Cochain(ico, SIMPLICIAL, 1, np.zeros(7))
    with pytest.raises(ValueError):
        # dual 0-cochains are indexed by top cells, not vertices
        Cochain(ico, DUAL, 0, np.zeros(ico.complex.n_simplices(0)))
    # dual 1-cochains on a surface share the edge skeleton
    Cochain(ico, DUAL, 1, np.zeros(ico.complex.n_simplices(1)))


def test_cochain_integer_values_preserved(ico):
    w = Cochain(ico, SIMPLICIAL, 1, np.arange(30))
    assert w.values.dtype.kind == "i"
    dd = exterior_derivative(w)
    assert dd.values.dtype.kind == "i"


def test_hodge_single_edge_arithmetic():
    # |edge| = 1 so each vertex sees half of it: value 2 -> dual value 1
    c = build_complex(1, [(0, 1)])
    m = MetricComplex(c, [1.0])
    w = Cochain(m, SIMPLICIAL, 0, [2.0, 2.0])
    star = hodge(w)
    assert star.lattice == DUAL and star.degree == 1
    assert np.allclose(star.values, [1.0, 1.0], atol=1e-15)


def test_hodge_round_trip(cell5):
    rng = np.random.default_rng(0)
    for k in range(4):
        w = Cochain(cell5, SIMPLICIAL, k, rng.standard_normal(cell5.complex.n_simplices(k)))
        back = hodge(hodge(w))
        assert back.lattice == SIMPLICIAL and back.degree == k
        assert np.allclose(back.values, w.values, rtol=1e-13)


def test_hodge_density_preservation(ico):
    rng = np.random.default_rng(1)
    for k in range(3):
        w = Cochain(ico, SIMPLICIAL, k, rng.standard_normal(ico.complex.n_simplices(k)))
        assert np.allclose(hodge(w).densities(), w.densities(), rtol=1e-13)


def test_hodge_constant_density(cell5):
    w = Cochain(cell5, SIMPLICIAL, 1, cell5.volumes[1].copy())
    star = hodge(w)
    assert np.allclose(star.densities(), 1.0, atol=1e-14)


def test_exterior_derivative_stokes_edge():
    c = build_complex(1, [(0, 1)])
    m = MetricComplex(c, [1.0])
    f = Cochain(m, SIMPLICIAL, 0, [3.0, 5.0])
    df = exterior_derivative(f)
    assert df.values.tolist() == [2.0]


def test_exterior_derivative_constant_kernel(ico):
    f = Cochain(ico, SIMPLICIAL, 0, np.ones(12))
    assert np.abs(exterior_derivative(f).values).max() == 0.0


def test_dd_zero_integer_exact(ico, cell5, simplex5_boundary):
    rng = np.random.default_rng(2)
    for m in (ico, cell5, simplex5_boundary):
        d = m.dim
        for lattice in (SIMPLICIAL, DUAL):
            for k in range(d - 1):
                kp = k if lattice == SIMPLICIAL else d - k
                w = Cochain(
                    m, lattice, k, rng.integers(-50, 50, size=m.complex.n_simplices(kp))
                )
                dd = exterior_derivative(exterior_derivative(w))
                assert np.abs(dd.values).max() == 0


def test_top_degree_derivative_rejected(ico):
    w = Cochain(ico, SIMPLICIAL, 2, np.zeros(20))
    with pytest.raises(ValueError):
        exterior_derivative(w)


def test_coderivative_degree_zero_rejected(ico):
    w = Cochain(ico, SIMPLICIAL, 0, np.zeros(12))
    with pytest.raises(ValueError):
        coderivative(w)


def test_coderivative_constant_density_flat_interior(grid2):
    # discrete divergence of the uniform field vanishes away from the rim
    w = Cochain(grid2, SIMPLICIAL, 1, grid2.volumes[1].copy())
    dv = coderivative(w)
    interior = ~grid2.complex.is_boundary[0]
    assert interior.any()
    assert np.abs(dv.values[interior]).max() == 0.0


def test_coderivative_composes_to_zero(cell5):
    rng = np.random.default_rng(3)
    for k in range(2, 4):
        w = Cochain(cell5, SIMPLICIAL, k, rng.standard_normal(cell5.complex.n_simplices(k)))
        ddv = coderivative(coderivative(w))
        scale = np.abs(w.values).max()
        assert np.abs(ddv.values).max() <= 1e-13 * scale


def test_measured_adjointness(ico, cell5, simplex5_boundary):
    rng = np.random.default_rng(4)
    for m in (ico, cell5, simplex5_boundary):
        d = m.dim
        c = m.complex
        for lattice in (SIMPLICIAL, DUAL):
            for k in range(d):
                n_a = c.n_simplices(k if lattice == SIMPLICIAL else d - k)
                n_b = c.n_simplices(k + 1 if lattice == SIMPLICIAL else d - k - 1)
                for _ in range(5):
                    a = Cochain(m, lattice, k, rng.standard_normal(n_a))
                    b = Cochain(m, lattice, k + 1, rng.standard_normal(n_b))
                    lhs = l2_inner_product(exterior_derivative(a), b)
                    rhs = l2_inner_product(a, coderivative(b))
                    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_coderivative_is_star_d_star_up_to_degree_constant(cell5, simplex5_boundary):
    # the two textbook routes to delta agree elementwise after one
    # constant per degree, and that constant is C(d,k-1)/C(d,k)
    rng = np.random.default_rng(5)
    for m in (cell5, simplex5_boundary):
        d = m.dim
        for k in range(1, d + 1):
            w = Cochain(m, SIMPLICIAL, k, rng.standard_normal(m.complex.n_simplices(k)))
            direct = coderivative(w).values
            roundabout = hodge(exterior_derivative(hodge(w))).values
            const = math.comb(d, k - 1) / math.comb(d, k)
            assert np.allclose(direct, const * roundabout, rtol=1e-10, atol=1e-12)


def test_laplacian_constant_harmonic(ico):
    f = Cochain(ico, SIMPLICIAL, 0, np.ones(12))
    assert np.abs(laplacian(f).values).max() <= 1e-15


def test_laplacian_self_adjoint(cell5):
    rng = np.random.default_rng(6)
    n = cell5.complex.n_simplices(1)
    a = Cochain(cell5, SIMPLICIAL, 1, rng.standard_normal(n))
    b = Cochain(cell5, SIMPLICIAL, 1, rng.standard_normal(n))
    assert l2_inner_product(laplacian(a), b) == pytest.approx(
        l2_inner_product(a, laplacian(b)), rel=1e-11
    )


def test_l2_measure_constant_density_partitions(ico):
    for k in range(3):
        w = Cochain(ico, SIMPLICIAL, k, ico.volumes[k].copy())  # density 1
        total = sum(l2_measure(w, i) for i in range(ico.complex.n_simplices(k)))
        assert total == pytest.approx(ico.volumes[2].sum(), rel=1e-12)


def test_l2_inner_product_basics(ico):
    n = ico.complex.n_simplices(1)
    w = Cochain(ico, SIMPLICIAL, 1, ico.volumes[1].copy())
    assert l2_inner_product(w, w) == pytest.approx(ico.volumes[2].sum(), rel=1e-12)
    a = np.zeros(n)
    b = np.zeros(n)
    a[0] = 3.0
    b[1] = 4.0
    assert l2_inner_product(Cochain(ico, SIMPLICIAL, 1, a), Cochain(ico, SIMPLICIAL, 1, b)) == 0.0
    assert l2_inner_product(Cochain(ico, SIMPLICIAL, 1, a), Cochain(ico, SIMPLICIAL, 1, a)) > 0


def test_l2_inner_product_mismatch_rejected(ico):
    a = Cochain(ico, SIMPLICIAL, 0, np.zeros(12))
    b = Cochain(ico, SIMPLICIAL, 1, np.zeros(30))
    with pytest.raises(ValueError):
        l2_inner_product(a, b)


def test_transfer_constant_density(cell5):
    lam = Cochain(cell5, DUAL, 1, 0.7 * cell5.dual_volumes[2])  # density 0.7
    out = transfer_density(lam, SIMPLICIAL)
    assert out.lattice == SIMPLICIAL and out.degree == 1
    assert np.allclose(out.densities(), 0.7, rtol=1e-12)


def test_transfer_single_impulse(cell5):
    c = cell5.complex
    vals = np.zeros(c.n_simplices(2))
    vals[0] = cell5.dual_volumes[2][0]  # density 1 on one dual edge
    out = transfer_density(Cochain(cell5, DUAL, 1, vals), SIMPLICIAL)
    dens = out.densities()
    from pfcurv import SimplexId

    face = SimplexId(2, 0)
    touched = {e.index for e in c.faces(face, 1)}
    for i in range(c.n_simplices(1)):
        if i in touched:
            expect = cell5.shared_hybrid_volume(SimplexId(1, i), face) / cell5.hybrid_volume(
                SimplexId(1, i)
            )
            assert dens[i] == pytest.approx(expect, rel=1e-12)
        else:
            assert dens[i] == 0.0


def test_transfer_measure_conservation(cell5, simplex5_boundary):
    rng = np.random.default_rng(7)
    for m in (cell5, simplex5_boundary):
        n = m.complex.n_simplices(m.dim - 1)
        w = Cochain(m, DUAL, 1, rng.standard_normal(n))
        out = transfer_density(w, SIMPLICIAL)
        total_in = (w.densities() * w.hybrid_volumes()).sum()
        total_out = (out.densities() * out.hybrid_volumes()).sum()
        assert total_out == pytest.approx(total_in, rel=1e-12)


def test_transfer_round_direction(cell5):
    rng = np.random.default_rng(8)
    w = Cochain(cell5, SIMPLICIAL, 1, rng.standard_normal(cell5.complex.n_simplices(1)))
    out = transfer_density(w, DUAL)
    assert out.lattice == DUAL and out.degree == 1
    total_in = (w.densities() * w.hybrid_volumes()).sum()
    total_out = (out.densities() * out.hybrid_volumes()).sum()
    assert total_out == pytest.approx(total_in, rel=1e-12)


def test_transfer_unsupported_pairs(cell5):
    w0 = Cochain(cell5, SIMPLICIAL, 0, np.zeros(5))
    with pytest.raises(UnsupportedPair):
        transfer_density(w0, DUAL)
    w1 = Cochain(cell5, SIMPLICIAL, 1, np.zeros(10))
    with pytest.raises(UnsupportedPair):
        transfer_density(w1, DUAL, target_degree=2)
    with pytest.raises(UnsupportedPair):
        transfer_density(w1, SIMPLICIAL)  # same lattice is not a transfer


def test_densities_blocked_by_zero_measure(grid2):
    # hypotenuse dual edges are exactly zero on the flat grid
    w = Cochain(grid2, DUAL, 1, np.ones(grid2.complex.n_simplices(1)))
    with pytest.raises(ZeroMeasureElement):
        w.densities()


# one fixture per dimension 1..4, with and without boundary
STACK_MESHES = ["long_cycle", "ico", "cell5", "perturbed_grid", "simplex5_boundary", "perturbed_grid4"]


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _stack_ops(m, lattice, k):
    """Every operator that applies to a degree-k cochain on ``lattice``."""
    d = m.dim
    ops = {"hodge": hodge, "laplacian": laplacian}
    if k < d:
        ops["exterior_derivative"] = exterior_derivative
    if k > 0:
        ops["coderivative"] = coderivative
    if k == 1 and d >= 2:
        other = DUAL if lattice == SIMPLICIAL else SIMPLICIAL
        ops["transfer_density"] = lambda w: transfer_density(w, other)
    return ops


@pytest.mark.parametrize("name", STACK_MESHES)
def test_stacked_cochains_match_row_by_row(request, name):
    m = request.getfixturevalue(name)
    d = m.dim
    rng = np.random.default_rng(8)
    for lattice in (SIMPLICIAL, DUAL):
        for k in range(d + 1):
            n = m.complex.n_simplices(k if lattice == SIMPLICIAL else d - k)
            stack = Cochain(m, lattice, k, rng.standard_normal((5, n)))
            rows = [Cochain(m, lattice, k, v) for v in stack.values]
            for op_name, op in _stack_ops(m, lattice, k).items():
                got = op(stack)
                want = [op(r) for r in rows]
                assert (got.lattice, got.degree) == (want[0].lattice, want[0].degree), op_name
                assert_same_bits(got.values, np.stack([w.values for w in want]))
                # the pairing sums each row of an operator's output in the 1-D order
                assert l2_inner_product(got, got).tolist() == [l2_inner_product(w, w) for w in want], op_name
            other = Cochain(m, lattice, k, rng.standard_normal((5, n)))
            other_rows = [Cochain(m, lattice, k, v) for v in other.values]
            pairs = l2_inner_product(stack, other)
            assert pairs.shape == (5,)
            assert pairs.tolist() == [l2_inner_product(r, o) for r, o in zip(rows, other_rows)]
            # a single cochain pairs with every cochain of a stack
            assert l2_inner_product(rows[0], other).tolist() == [l2_inner_product(rows[0], o) for o in other_rows]
            assert l2_measure(stack, 3).tolist() == [l2_measure(r, 3) for r in rows]
            fortran = Cochain(m, lattice, k, np.asfortranarray(stack.values))
            assert l2_inner_product(fortran, fortran).tolist() == [l2_inner_product(r, r) for r in rows]


@pytest.mark.parametrize("name", STACK_MESHES)
def test_integer_stacks_stay_integer_through_d_after_d(request, name):
    m = request.getfixturevalue(name)
    d = m.dim
    rng = np.random.default_rng(9)
    for lattice in (SIMPLICIAL, DUAL):
        for k in range(d - 1):
            n = m.complex.n_simplices(k if lattice == SIMPLICIAL else d - k)
            w = Cochain(m, lattice, k, rng.integers(-9, 10, size=(5, n)))
            dw = exterior_derivative(w)
            dd = exterior_derivative(dw)
            assert dw.values.dtype.kind == dd.values.dtype.kind == "i"
            assert dd.values.shape == (5, m.complex.n_simplices(k + 2 if lattice == SIMPLICIAL else d - k - 2))
            assert not dd.values.any()
            for row, v in zip(dw.values, w.values):
                assert_same_bits(row, exterior_derivative(Cochain(m, lattice, k, v)).values)


def test_single_cochains_give_floats_and_stacks_arrays(ico):
    w = Cochain(ico, SIMPLICIAL, 0, np.arange(12.0))
    assert type(l2_inner_product(w, w)) is float
    assert type(l2_measure(w, 0)) is float
    stack = Cochain(ico, SIMPLICIAL, 0, np.arange(24.0).reshape(2, 1, 12))
    assert l2_inner_product(stack, stack).shape == (2, 1)
    assert exterior_derivative(stack).values.shape == (2, 1, 30)
    with pytest.raises(ValueError):
        Cochain(ico, SIMPLICIAL, 0, np.zeros((12, 2)))  # elements go last
    with pytest.raises(ValueError):
        Cochain(ico, SIMPLICIAL, 0, np.float64(0.0))


@pytest.mark.parametrize("name", STACK_MESHES)
def test_batched_adjointness_check_equals_the_looped_one(request, name):
    # the same draws, paired sample by sample, give the same worst residual
    m = request.getfixturevalue(name)
    for seed in (0, 3):
        (got,) = [r.residual for r in dec_checks(m, seed=seed) if r.name == "measured adjointness"]
        assert got == oracles.looped_adjointness(m, seed=seed)
