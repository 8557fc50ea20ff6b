import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st
from smith_oracle import columns_fit, det, identity, matmul, minor_gcd_factors, smith_check
from test_snf_differential import dense_smith_normal_form

from foxcolor.coloring import coloring_matrix, link_determinant, profile
from foxcolor.diagram import build_diagram, catalog, catalog_names, random_variants
from foxcolor.linalg import IntegerMatrix, smith_normal_form, solve_mod

TREFOIL_MATRIX = IntegerMatrix.from_rows([[1, 1, -2], [-2, 1, 1], [1, -2, 1]])


def assert_valid_decomposition(m, sd):
    # c unimodular, m @ c column j divisible by d_j, and the factors
    # confirmed by the minor oracle or, past it, by the dense reference
    assert smith_check(m, sd.c, sd.invariant_factors, reference=dense_smith_normal_form)
    # non-negative, divisibility chain, zeros trailing
    factors = sd.invariant_factors
    assert all(f >= 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_trefoil_matrix(self):
        sd = smith_normal_form(TREFOIL_MATRIX)
        assert sd.invariant_factors == (1, 3, 0)
        assert_valid_decomposition(TREFOIL_MATRIX, sd)

    def test_trefoil_matrix_minor_oracle(self):
        # gcd of entries is 1, gcd of 2x2 minors is 3, determinant is 0
        assert minor_gcd_factors(TREFOIL_MATRIX) == (1, 3, 0)

    def test_identity(self):
        m = identity(2)
        sd = smith_normal_form(m)
        assert sd.invariant_factors == (1, 1)
        assert sd.c == identity(2)
        assert_valid_decomposition(m, sd)

    def test_already_diagonal(self):
        sd = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 4]]))
        assert sd.invariant_factors == (2, 4)

    def test_2x2_with_gcd(self):
        m = IntegerMatrix.from_rows([[6, 4], [2, 2]])
        sd = smith_normal_form(m)
        # gcd of entries 2, |det| 4, so factors (2, 2)
        assert sd.invariant_factors == (2, 2)
        assert minor_gcd_factors(m) == (2, 2)

    def test_zero_1x1(self):
        sd = smith_normal_form(IntegerMatrix.from_rows([[0]]))
        assert sd.invariant_factors == (0,)
        assert minor_gcd_factors(IntegerMatrix.from_rows([[0]])) == (0,)

    def test_empty(self):
        sd = smith_normal_form(IntegerMatrix(0, 0, ()))
        assert sd.invariant_factors == ()
        assert sd.c == IntegerMatrix(0, 0, ())
        assert_valid_decomposition(IntegerMatrix(0, 0, ()), sd)

    def test_non_square(self):
        m = IntegerMatrix.from_rows([[2, 4, 6]])
        sd = smith_normal_form(m)
        assert sd.invariant_factors == (2,)
        assert_valid_decomposition(m, sd)

    def test_deterministic(self):
        m = IntegerMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_negative_entries_normalized(self):
        sd = smith_normal_form(IntegerMatrix.from_rows([[-3]]))
        assert sd.invariant_factors == (3,)


@st.composite
def small_matrices(draw, max_dim=6):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntegerMatrix.from_rows(rows)


class TestSmithProperties:
    @settings(deadline=None)
    @given(small_matrices())
    def test_decomposition_and_minor_oracle(self, m):
        sd = smith_normal_form(m)
        assert_valid_decomposition(m, sd)
        assert sd.invariant_factors == minor_gcd_factors(m)

    @settings(deadline=None)
    @given(small_matrices(max_dim=4), st.randoms(use_true_random=False))
    def test_permutation_and_sign_invariance(self, m, rnd):
        rows = [list(r) for r in m.entries]
        rnd.shuffle(rows)
        rows = [r if rnd.random() < 0.5 else [-x for x in r] for r in rows]
        cols = list(range(m.cols))
        rnd.shuffle(cols)
        shuffled = IntegerMatrix.from_rows([[r[j] for j in cols] for r in rows])
        assert (smith_normal_form(shuffled).invariant_factors
                == smith_normal_form(m).invariant_factors)

    @settings(deadline=None)
    @given(small_matrices(max_dim=4))
    def test_unit_padding_appends_factor_one(self, m):
        padded = IntegerMatrix.from_rows(
            [list(row) + [0] for row in m.entries] + [[0] * m.cols + [1]])
        base = smith_normal_form(m).invariant_factors
        expanded = smith_normal_form(padded).invariant_factors
        assert sorted(expanded) == sorted(base + (1,))


class TestMinorOracle:
    def test_dimension_guard(self):
        big = IntegerMatrix.from_rows([[1] * 7 for _ in range(7)])
        with pytest.raises(ValueError):
            minor_gcd_factors(big)


class TestLargerMatrices:
    def test_factor_product_matches_determinant(self):
        # beyond the minor oracle's reach: d_1 * ... * d_n = |det|, and c and
        # the factors pass the check against the dense reference
        import random
        rng = random.Random(421)
        for _ in range(25):
            n = rng.randint(7, 9)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
            sd = smith_normal_form(m)
            assert smith_check(m, sd.c, sd.invariant_factors, reference=dense_smith_normal_form)
            product = 1
            for f in sd.invariant_factors:
                product *= f
            assert product == abs(det(m))


class TestTransformsOnDemand:
    def test_invariants_build_no_transform(self):
        # counts, nullities and determinants read the factors alone
        for name in catalog_names():
            pr = profile(build_diagram(catalog(name)))
            for m in range(2, 16):
                pr.count(m)
            for p in (3, 5, 7, 11, 13):
                pr.nullity(p)
            assert link_determinant(pr.smith) == pr.determinant
            assert "c" not in vars(pr.smith), name

    def test_enumeration_builds_walked_columns_only(self):
        # solve_mod reads the whole matrix's log for the columns of c it
        # walks, those of the factors divisible by 5, and builds no c
        sd = profile(build_diagram(catalog("9_40"))).smith
        kernel = solve_mod(sd, 5)
        assert "col_ops" in vars(sd) and "c" not in vars(sd)
        free = [f for f, d in enumerate(sd.padded_factors()) if d % 5 == 0]
        assert len(free) == 3 and kernel.sizes == (5, 5, 5) and kernel.steps == (1, 1, 1)
        assert kernel.transform.entries == tuple(tuple(row[f] for f in free)
                                                 for row in sd.c.entries)

    def test_replayed_transforms_on_grown_variant(self):
        # larger than the catalog diagrams; the replayed c passes the check
        # and equals the dense reference's
        d = build_diagram(catalog("9_40"))
        (variant,) = random_variants(d, 1, 30, seed=5)
        m = coloring_matrix(variant)
        assert min(m.rows, m.cols) > 20
        sd = smith_normal_form(m)
        assert_valid_decomposition(m, sd)
        assert sd.invariant_factors[-3:] == (5, 15, 0)

    def test_equal_decompositions(self):
        m = IntegerMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        a, b = smith_normal_form(m), smith_normal_form(m)
        _ = a.c  # a cached transform takes no part in equality
        assert a == b
        assert hash(a) == hash(b)
        assert a.shape == (3, 3) and a.nonzeros == m.nonzeros
        # same factors, different matrices
        assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 4]])) != \
            smith_normal_form(IntegerMatrix.from_rows([[4, 0], [0, 2]]))

    def test_decomposition_keeps_no_dense_rows(self):
        m = coloring_matrix(build_diagram(catalog("9_40")))
        sd = smith_normal_form(m)
        gone = weakref.ref(m)
        del m
        gc.collect()
        assert gone() is None  # only the shape and the nonzeros stay
        assert_valid_decomposition(coloring_matrix(build_diagram(catalog("9_40"))), sd)


def with_columns(c, f):
    """c with its columns given by f, a function of the list of columns."""
    cols = f([list(col) for col in zip(*c.entries)])
    return IntegerMatrix(c.rows, c.cols, tuple(zip(*cols)))


class TestSmithCheck:
    """smith_check, the check that holds c and the factors to a Smith
    decomposition without a row transform, against broken ones."""

    DIAG_2_6 = IntegerMatrix.from_rows([[2, 0], [0, 6]])

    @pytest.mark.parametrize("m", [TREFOIL_MATRIX, DIAG_2_6, IntegerMatrix.from_rows([[2, 4, 6]]),
                                   IntegerMatrix.from_rows([[6, 4], [2, 2]])],
                             ids=lambda m: f"{m.rows}x{m.cols}")
    def test_accepts_the_dense_reference(self, m):
        want = dense_smith_normal_form(m)
        assert smith_check(m, want.c, want.invariant_factors)

    def test_broken_transforms_fail_the_columns(self):
        trefoil = dense_smith_normal_form(TREFOIL_MATRIX)
        diag = dense_smith_normal_form(self.DIAG_2_6)
        assert diag.invariant_factors == (2, 6) and diag.c == identity(2)
        mutants = {
            # det(c) = +-2: the columns of m @ c stay divisible, only det catches it
            "one column doubled": (TREFOIL_MATRIX, (1, 3, 0), with_columns(
                trefoil.c, lambda cs: cs[:2] + [[2 * x for x in cs[2]]])),
            # column 1 of m @ c is (2, 0), not divisible by 6
            "columns of 2 and 6 swapped": (self.DIAG_2_6, (2, 6),
                                           with_columns(diag.c, lambda cs: cs[::-1])),
            # m @ c = m: column 2 is not zero, column 1 not divisible by 3
            "identity for the trefoil": (TREFOIL_MATRIX, (1, 3, 0), identity(3)),
        }
        for name, (m, factors, c) in mutants.items():
            assert not columns_fit(m, c, factors), name
            assert not smith_check(m, c, factors), name

    def test_wrong_factors_fail_only_the_factor_oracle(self):
        c = dense_smith_normal_form(TREFOIL_MATRIX).c
        assert columns_fit(TREFOIL_MATRIX, c, (1, 1, 0))  # every column divides by 1
        assert not smith_check(TREFOIL_MATRIX, c, (1, 1, 0))  # the minors give (1, 3, 0)
        assert smith_check(TREFOIL_MATRIX, c, (1, 3, 0))

    def test_past_the_minor_oracle_the_reference_decides(self):
        m = coloring_matrix(build_diagram(catalog("9_40")))
        assert min(m.rows, m.cols) > 6
        want = dense_smith_normal_form(m)
        assert smith_check(m, want.c, want.invariant_factors, reference=dense_smith_normal_form)
        ones = (1,) * 8 + (0,)
        assert columns_fit(m, want.c, ones)
        assert not smith_check(m, want.c, ones, reference=dense_smith_normal_form)
        with pytest.raises(ValueError):
            smith_check(m, want.c, want.invariant_factors)


class TestSolveMod:
    def test_trefoil_mod3(self):
        kernel = solve_mod(smith_normal_form(TREFOIL_MATRIX), 3)
        # the first coordinate, forced to 0, is not listed; the other two are free
        assert [tuple(range(0, 3, step)) for step in kernel.steps] == [(0, 1, 2), (0, 1, 2)]
        assert kernel.count() == 9
        vectors = list(kernel.vectors())
        assert len(vectors) == len(set(vectors)) == 9

    def test_trefoil_mod5_only_trivial(self):
        kernel = solve_mod(smith_normal_form(TREFOIL_MATRIX), 5)
        assert kernel.sizes == (5,)  # the two coordinates of size 1 are not listed
        assert kernel.count() == 5

    def test_trefoil_mod9(self):
        kernel = solve_mod(smith_normal_form(TREFOIL_MATRIX), 9)
        assert kernel.sizes == (3, 9)  # nor is the one of size 1
        assert kernel.count() == 27

    def test_vectors_solve_the_system(self):
        m = IntegerMatrix.from_rows([[2, -2, 0], [0, 3, -3]])
        kernel = solve_mod(smith_normal_form(m), 6)
        for x in kernel.vectors():
            for row in m.entries:
                assert sum(a * b for a, b in zip(row, x)) % 6 == 0

    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            solve_mod(smith_normal_form(TREFOIL_MATRIX), 1)


class TestIntegerMatrix:
    # det, matmul and identity are the dense oracle helpers of smith_oracle
    def test_det_bareiss(self):
        assert det(IntegerMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(IntegerMatrix.from_rows([[2]])) == 2
        assert det(identity(4)) == 1
        assert det(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert det(IntegerMatrix.from_rows([[1, 1], [1, 1]])) == 0

    def test_det_non_square(self):
        with pytest.raises(ValueError):
            det(IntegerMatrix.from_rows([[1, 2, 3]]))

    def test_matmul(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4], [0, -1]])
        assert matmul(a, IntegerMatrix.from_rows([[1, 0, 2], [-1, 1, 0]])) == \
            IntegerMatrix.from_rows([[-1, 2, 2], [-1, 4, 6], [1, -1, 0]])
        assert matmul(IntegerMatrix(0, 2, ()), identity(2)) == IntegerMatrix(0, 2, ())

    def test_matmul_shape_guard(self):
        with pytest.raises(ValueError):
            matmul(identity(2), identity(3))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
