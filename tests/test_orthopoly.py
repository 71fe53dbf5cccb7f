"""Polynomial family values, certification, and addition splits."""

import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconvtest import orthopoly
from deconvtest.measures import ChiSquared, Exponential, Gamma, GeometricRef
from deconvtest.orthopoly import (
    HARD_DEGREE_CAP, BasisInconsistencyError, DegreeOverflowError,
    DomainError, PolynomialFamilySpec, certified_basis,
    certify_orthonormality, laguerre_table, meixner_scaled_table,
    shifted_legendre_table,
)

from .oracles import (
    exp_weight_nodes, geometric_nodes, gram_schmidt_polynomials,
    uniform01_nodes,
)


def _meixner_summed_gram_error(table) -> float:
    """|Gram - I| of a Meixner table by direct summation over the support.

    The points reach 80 (degree + 1) / -log(p), where p**x has fallen
    below exp(-80 (degree + 1)), far below the growth of the degree-2d
    summand.
    """
    p, degree = table.family.shape, table.family.max_degree
    nodes, weights = geometric_nodes(p, int(80 * (degree + 1) / -np.log(p)))
    vals = table.eval_normalized(nodes)
    gram = np.einsum("in,jn,n->ij", vals, vals, weights)
    return float(np.max(np.abs(gram - np.eye(degree + 1))))


class TestEvalLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_table(0, 1.0, 7.3)[0] == 1.0

    def test_degree_one(self):
        # L1(x) = 1 - x at shape 1
        assert laguerre_table(1, 1.0, 2.0)[1] == pytest.approx(-1.0)

    def test_degree_two_hand_unrolled(self):
        # recurrence gives L2(x) = (x^2 - 4x + 2) / 2 at shape 1
        assert laguerre_table(2, 1.0, 0.0)[2] == pytest.approx(1.0)
        x = 1.7
        assert laguerre_table(2, 1.0, x)[2] == pytest.approx(
            (x * x - 4 * x + 2) / 2)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(laguerre_table(1, 1.0, x)[1], 1.0 - x)

    def test_degree_above_cap(self):
        with pytest.raises(DegreeOverflowError):
            laguerre_table(HARD_DEGREE_CAP + 1, 1.0, 0.5)

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            laguerre_table(-1, 1.0, 0.5)

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            laguerre_table(2, 0.0, 0.5)


class TestEvalShiftedLegendre:
    def test_root_of_degree_one(self):
        assert shifted_legendre_table(1, 0.5)[1] == pytest.approx(0.0)

    def test_value_one_at_right_edge(self):
        assert shifted_legendre_table(2, 1.0)[2] == pytest.approx(1.0)

    def test_value_at_left_edge(self):
        # degree-2 orthogonal polynomial on [0, 1] is 6x^2 - 6x + 1
        assert shifted_legendre_table(2, 0.0)[2] == pytest.approx(1.0)

    def test_degree_two_matches_gram_schmidt(self):
        nodes, weights = uniform01_nodes()
        oracle = gram_schmidt_polynomials(3, nodes, weights)
        idx = 1234
        mine = shifted_legendre_table(2, nodes[idx])[2]
        # oracle rows are orthonormal; rescale by the known norm sqrt(5)
        assert mine == pytest.approx(oracle[2, idx] / np.sqrt(5.0), abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            shifted_legendre_table(2, 1.2)
        with pytest.raises(DomainError):
            shifted_legendre_table(2, -0.1)

    def test_degree_above_cap(self):
        with pytest.raises(DegreeOverflowError):
            shifted_legendre_table(HARD_DEGREE_CAP + 1, 0.5)
        with pytest.raises(DomainError):
            shifted_legendre_table(-1, 0.5)


class TestEvalMeixner:
    def test_bad_parameter(self):
        with pytest.raises(DomainError):
            meixner_scaled_table(1, 1.0, 1.5, 0)
        with pytest.raises(DomainError):
            meixner_scaled_table(1, 1.0, 0.0, 0)

    @pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
    def test_order_parameter_must_be_positive(self, b):
        with pytest.raises(DomainError, match="order parameter b"):
            meixner_scaled_table(3, b, 0.5, np.arange(4.0))

    def test_certified_degree_two_matches_gram_schmidt(self, meixner_table):
        nodes, weights = geometric_nodes(0.5)
        oracle = gram_schmidt_polynomials(3, nodes, weights)
        x = 3
        mine = meixner_table.eval_normalized(np.array([float(x)]), 2)[2, 0]
        ref = oracle[2, x]
        assert abs(mine) == pytest.approx(abs(ref), rel=1e-8)


class TestCertification:
    @pytest.mark.parametrize("fixture", ["laguerre_table", "legendre_table",
                                         "meixner_table"])
    def test_gram_is_identity(self, fixture, request):
        table = request.getfixturevalue(fixture)
        assert table.gram_residual < 1e-8

    def test_laguerre_norms_are_one(self, laguerre_table):
        np.testing.assert_allclose(laguerre_table.norms, 1.0, atol=1e-12)

    def test_legendre_norms(self, legendre_table):
        n = np.arange(11)
        np.testing.assert_allclose(legendre_table.norms ** 2, 1.0 / (2 * n + 1),
                                   rtol=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 10, 16, HARD_DEGREE_CAP])
    def test_legendre_rule_exact_at_certification_size(self, degree):
        # max_degree + 1 nodes integrate x**r exactly against U(0, 1) for
        # r <= 2 * max_degree + 1, one degree past the Gram matrix
        x, w = PolynomialFamilySpec("shifted_legendre",
                                    max_degree=degree).certification_rule()
        assert x.size == degree + 1
        r = np.arange(2 * degree + 2)
        np.testing.assert_allclose(x[None, :] ** r[:, None] @ w,
                                   1.0 / (r + 1), rtol=1e-12)

    def test_shared_table_is_read_only(self):
        # equal references share one certified table, so none may change it
        table = GeometricRef(0.3).basis
        assert GeometricRef(0.3).basis is table
        assert table is certified_basis(PolynomialFamilySpec("meixner", 0.3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.norms = np.ones(table.norms.size)
        with pytest.raises(ValueError, match="read-only"):
            table.norms[0] = 2.0
        assert table.norms[0] == certify_orthonormality(table.family).norms[0]

    def test_generalized_laguerre_certifies(self):
        table = certify_orthonormality(
            PolynomialFamilySpec("laguerre", 2.5, max_degree=8))
        assert table.gram_residual < 1e-8

    def test_half_shape_laguerre_certifies(self):
        # shape below 1: the Gauss rule's weight x**(shape - 1) carries
        # the singularity at 0
        table = certify_orthonormality(
            PolynomialFamilySpec("laguerre", 0.5, max_degree=8))
        assert table.gram_residual < 1e-8

    def test_laguerre_gram_against_independent_quadrature(self, laguerre_table):
        nodes, weights = exp_weight_nodes()
        vals = laguerre_table.eval_normalized(nodes, 10)
        gram = np.einsum("in,jn,n->ij", vals, vals, weights)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    def test_meixner_gram_against_truncated_sum(self):
        # certified with the Gauss-Meixner rule, checked by direct summation,
        # which also checks the norms, up to the hard degree cap
        cases = [(p, degree) for p in (0.3, 0.5, 0.7, 0.9, 0.99)
                 for degree in (16, HARD_DEGREE_CAP)]
        for p, degree in cases + [(0.1, 16)]:
            table = certify_orthonormality(
                PolynomialFamilySpec("meixner", p, max_degree=degree))
            assert _meixner_summed_gram_error(table) < 1e-8, (p, degree)

    def test_small_p_meixner_is_refused_or_right(self):
        # at small p the table loses accuracy as the degree grows: a basis
        # there must be refused, never certified wrong
        refused = []
        for p in (0.01, 0.05, 0.1):
            for degree in (8, 16, 24, HARD_DEGREE_CAP):
                spec = PolynomialFamilySpec("meixner", p, max_degree=degree)
                try:
                    table = certify_orthonormality(spec)
                except BasisInconsistencyError:
                    refused.append((p, degree))
                    continue
                assert _meixner_summed_gram_error(table) < 1e-8, (p, degree)
        assert (0.01, HARD_DEGREE_CAP) in refused
        assert (0.01, 8) not in refused

    def test_overflowing_table_is_refused_without_warning(self):
        # at p = 1e-20 the Meixner recurrence overflows, so the norms and
        # the Gram matrix are not finite: refused, never certified as NaN,
        # and the message names the first bad norm as a norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BasisInconsistencyError) as err:
                certify_orthonormality(PolynomialFamilySpec("meixner", 1e-20))
        assert not np.isfinite(err.value.residual)
        assert err.value.pair == (8, 8)
        assert str(err.value) == (
            "meixner basis failed orthonormality certification: squared "
            "norm of degree 8 is inf; it must be finite and positive")

    def test_failure_names_offending_pair(self, monkeypatch):
        # shifting the degree-1 polynomial by a constant breaks only its
        # orthogonality to constants
        from deconvtest import orthopoly as op
        original = op.meixner_scaled_table

        def shifted(k, b, p, x):
            table = original(k, b, p, x)
            table[1] += 1.0
            return table

        monkeypatch.setattr(op, "meixner_scaled_table", shifted)
        with pytest.raises(BasisInconsistencyError) as err:
            certify_orthonormality(PolynomialFamilySpec("meixner", 0.5, 6))
        assert err.value.pair == (0, 1)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PolynomialFamilySpec("meixner", 1.2, 5)
        with pytest.raises(DegreeOverflowError):
            PolynomialFamilySpec("laguerre", 1.0, HARD_DEGREE_CAP + 1)
        with pytest.raises(DomainError):
            PolynomialFamilySpec("hermite", 1.0, 5)

    @pytest.mark.parametrize("shape", [0.0, -1.0, float("nan")])
    def test_laguerre_shape_must_be_positive(self, shape):
        with pytest.raises(DomainError, match="Laguerre shape"):
            PolynomialFamilySpec("laguerre", shape)


def _split(kind, shape, k):
    split, _ = PolynomialFamilySpec(kind, shape, k).addition_split(k)
    return split


def test_split_weights_only_where_degrees_add_up():
    # the closed form contracts the whole tensor, so every entry with
    # s + r != i must be 0
    for kind, shape in (("laguerre", 1.0), ("meixner", 0.5)):
        split = _split(kind, shape, 6)
        i, s, r = np.indices(split.shape)
        assert not split[i != s + r].any()


class TestAdditionSplitLaguerre:
    def test_constant(self):
        assert _split("laguerre", 1.0, 0).tolist() == [[[1.0]]]

    def test_degree_one_half_half(self):
        # L(1, 1, y + z) = 1 - y - z = (0.5 - y) + (0.5 - z)
        split = _split("laguerre", 1.0, 1)
        np.testing.assert_array_equal(split[1], [[0.0, 1.0], [1.0, 0.0]])

    def test_identity_degree_three(self):
        rng = np.random.default_rng(3)
        split, table = PolynomialFamilySpec("laguerre", 1.0, 3).addition_split(3)
        for _ in range(50):
            y, z = rng.uniform(0.0, 10.0, 2)
            lhs = laguerre_table(3, 1.0, y + z)[3]
            ty, tz = table(y), table(z)
            rhs = sum(split[3, s, 3 - s] * ty[s] * tz[3 - s] for s in range(4))
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_identity_general_shape(self):
        # unit weights hold for any shapes, here u + v = 2
        rng = np.random.default_rng(4)
        split = _split("laguerre", 2.0, 6)
        for n in range(7):
            y, z = rng.uniform(0.0, 6.0, 2)
            lhs = laguerre_table(n, 2.0, y + z)[n]
            ty, tz = laguerre_table(n, 0.7, y), laguerre_table(n, 1.3, z)
            rhs = sum(split[n, s, n - s] * ty[s] * tz[n - s]
                      for s in range(n + 1))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))

    def test_palindromic_for_equal_split(self):
        split = _split("laguerre", 1.0, 8)
        for n in range(9):
            w = [split[n, s, n - s] for s in range(n + 1)]
            np.testing.assert_allclose(w, w[::-1])


class TestAdditionSplitMeixner:
    def test_constant(self):
        assert _split("meixner", 0.5, 0).tolist() == [[[1.0]]]

    def test_degree_one(self):
        split = _split("meixner", 0.5, 1)
        np.testing.assert_array_equal(split[1], [[0.0, 1.0], [1.0, 0.0]])

    def test_identity_on_integer_grid(self):
        grid = np.arange(21, dtype=float)
        yy, zz = np.meshgrid(grid, grid)
        for p in (0.5, 0.3, 0.7, 0.9):
            split, table = PolynomialFamilySpec(
                "meixner", p, 8).addition_split(8)
            ty, tz = table(yy), table(zz)
            for n in range(9):
                lhs = meixner_scaled_table(n, 1.0, p, yy + zz)[n]
                rhs = sum(split[n, s, n - s] * ty[s] * tz[n - s]
                          for s in range(n + 1))
                err = np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs)))
                assert err <= 1e-8, (p, n, err)

    def test_palindromic_for_equal_split(self):
        split = _split("meixner", 0.5, 8)
        for n in range(9):
            w = [split[n, s, n - s] for s in range(n + 1)]
            np.testing.assert_allclose(w, w[::-1])


class TestRecurrenceStability:
    def test_laguerre_finite_to_cap(self):
        x = np.linspace(0.0, 60.0, 7)
        vals = laguerre_table(HARD_DEGREE_CAP, 1.0, x)
        assert np.all(np.isfinite(vals))

    def test_meixner_finite_to_cap(self):
        from deconvtest.orthopoly import meixner_scaled_table
        x = np.arange(0, 120, 10, dtype=float)
        vals = meixner_scaled_table(HARD_DEGREE_CAP, 1.0, 0.5, x)
        assert np.all(np.isfinite(vals))

    def test_legendre_finite_to_cap(self):
        from deconvtest.orthopoly import shifted_legendre_table
        x = np.linspace(0.0, 1.0, 11)
        vals = shifted_legendre_table(HARD_DEGREE_CAP, x)
        assert np.all(np.isfinite(vals))


_TABLES = {
    "laguerre": lambda d, x: laguerre_table(d, 2.5, x),
    "shifted_legendre": shifted_legendre_table,
    "meixner": lambda d, x: meixner_scaled_table(d, 0.5, 0.3, x),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_TABLES)),
       degree=st.integers(0, HARD_DEGREE_CAP),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       scale=st.sampled_from([1.0, 40.0]))
def test_raw_tables_give_each_point_its_bits_at_any_rank(kind, degree, xs,
                                                         scale):
    # each step writes its row in place; for a 0-d x the row must be a
    # view, or the table keeps the bits of np.empty
    table = _TABLES[kind]
    if kind != "shifted_legendre":
        xs = [scale * v for v in xs]
    flat = table(degree, np.array(xs))
    square = table(degree, np.array(xs)[:, None] * np.ones(2))
    for i, v in enumerate(xs):
        for x in (v, np.float64(v), np.array(v)):
            assert table(degree, x).tobytes() == flat[:, i].tobytes()
        assert square[:, i, 1].tobytes() == flat[:, i].tobytes()


_SPLIT_GRID = np.array([0.0, 0.5, 1.0, 3.0, 7.0, 20.0])


def _bits(value):
    """Bytes of every array in a memo's value; a split's table at a grid."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if callable(value):
        return _bits(value(_SPLIT_GRID))
    return value.dtype.str, value.shape, value.tobytes()


def _arrays(value):
    return [v for v in (value or ()) if isinstance(v, np.ndarray)]


# each memo, a few of its keys, and its bound with enough keys to pass it
_MEMOS = {
    "gamma_rule": (
        orthopoly._gamma_weight_rule,
        [(shape, n) for shape in (0.5, 1.0, 2.5, 3) for n in (1, 2, 11, 17, 31)],
        orthopoly._SHARED_RULES,
        [(0.5 + i, 3) for i in range(orthopoly._SHARED_RULES + 5)]),
    "uniform01_rule": (
        orthopoly._uniform01_rule,
        [(n,) for n in (1, 2, 3, 11, 17, 31, 40)],
        orthopoly._SHARED_RULES,
        [(n,) for n in range(1, orthopoly._SHARED_RULES + 6)]),
    "addition_split": (
        PolynomialFamilySpec.addition_split,
        [(PolynomialFamilySpec(kind, shape), k)
         for kind, shape in (("laguerre", 1.0), ("laguerre", 2.5),
                             ("meixner", 0.3), ("meixner", 0.97),
                             ("shifted_legendre", 1.0))
         for k in (0, 1, 16)],
        orthopoly._SHARED_SPLITS,
        [(PolynomialFamilySpec("laguerre", 1.0 + i), 3)
         for i in range(orthopoly._SHARED_SPLITS + 5)]),
}


class TestSharedPieces:
    """The shape-only Gauss rules and the addition splits are kept per
    process: a kept value has a fresh call's bits, callers cannot write to
    it, and each memo holds at most its bound."""

    @pytest.mark.parametrize("name", sorted(_MEMOS))
    def test_kept_values_have_fresh_bits(self, name):
        memo, keys, bound, _ = _MEMOS[name]
        assert len(keys) <= bound
        keys = list(keys)
        random.Random(43).shuffle(keys)
        for _ in range(2):  # the first call fills the memo, the second hits
            for key in keys:
                assert _bits(memo(*key)) == _bits(memo.__wrapped__(*key))
        info = memo.cache_info()
        assert (info.misses, info.hits) == (len(keys), len(keys))

    @pytest.mark.parametrize("name", sorted(_MEMOS))
    def test_shared_arrays_are_read_only(self, name):
        memo, keys, _, _ = _MEMOS[name]
        value = memo(*keys[0])
        assert _arrays(value)
        for arr in _arrays(value):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        assert _bits(memo(*keys[0])) == _bits(memo.__wrapped__(*keys[0]))

    @pytest.mark.parametrize("name", sorted(_MEMOS))
    def test_memo_stays_within_its_bound(self, name):
        memo, _, bound, keys = _MEMOS[name]
        assert len(set(keys)) > bound
        for key in keys:
            memo(*key)
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound

    def test_laws_share_the_rules_of_their_shape(self):
        # the rule at rate and at 2 * rate, and every law of one shape,
        # take one eigen-solve
        for law in (Exponential(0.5), Gamma(1.0, 3.0), ChiSquared(2)):
            for rate in (1.0, 2.0):
                law.rule(11, rate)
        info = orthopoly._gamma_weight_rule.cache_info()
        assert (info.misses, info.hits) == (1, 5)
