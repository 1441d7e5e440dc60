"""Factor algebra: products, marginals, normalization, proportionality.

Algebraic invariants run under hypothesis on randomly generated variable
tables and factors; worked expectations come from the misconception tables
and are cross-checked by plain dict-arithmetic oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalnet import (
    Factor,
    Kernel,
    VariableTable,
    enumerate_assignments,
    factor_entry,
    factor_marginalize,
    factor_product,
    factor_restrict,
    kernel_to_factor,
    normalize_to_kernel,
    ones_factor,
    propto_equal,
)
from helpers import (
    MISCONCEPTION_STATES,
    MISCONCEPTION_TABLES,
    misconception_assignments,
    misconception_product,
    misconception_vt,
)

VT = misconception_vt()


def mfactor(u, v):
    table = MISCONCEPTION_TABLES[(u, v)]
    values = [
        table[(s1, s2)]
        for s1 in MISCONCEPTION_STATES[u]
        for s2 in MISCONCEPTION_STATES[v]
    ]
    return Factor((u, v), values)


# ---------------------------------------------------------------------------
# hypothesis strategies: a small variable table plus factors over subsets


@st.composite
def table_and_factors(draw, n_factors=2):
    n_vars = draw(st.integers(2, 4))
    names = tuple(f"X{i}" for i in range(n_vars))
    cards = [draw(st.integers(2, 3)) for _ in names]
    vt = VariableTable(
        tuple((v, tuple(f"s{j}" for j in range(c))) for v, c in zip(names, cards))
    )
    factors = []
    for _ in range(n_factors):
        subset = tuple(
            v for v in names if draw(st.booleans())
        ) or (names[0],)
        size = int(np.prod(vt.shape(subset)))
        values = draw(
            st.lists(
                st.floats(0.0, 8.0, allow_nan=False, width=32),
                min_size=size,
                max_size=size,
            )
        )
        factors.append(Factor(subset, values))
    return vt, factors


class TestValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Factor(("A",), [1.0, -0.5])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Factor(("A",), [float("nan"), 1.0])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_rejects_infinities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Factor(("A",), [1.0, bad])

    def test_variable_table_rejects_empty_states(self):
        with pytest.raises(ValueError, match="no states"):
            VariableTable((("A", ()),))

    def test_product_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="values"):
            factor_product(Factor(("A",), [1.0, 2.0, 3.0]), mfactor("A", "B"), VT)

    def test_product_rejects_unsorted_vars(self):
        with pytest.raises(ValueError, match="sorted"):
            factor_product(Factor(("B", "A"), [1, 2, 3, 4]), mfactor("A", "B"), VT)


class TestVariableTableLookups:
    def test_index_follows_listing_order(self):
        assert [VT.index(v) for v in "ABCD"] == [0, 1, 2, 3]

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown variable Z"):
            VT.index("Z")

    def test_equal_tables_compare_and_hash_equal(self):
        a = VariableTable([("A", ["a", "na"]), ("B", ("b",))])
        b = VariableTable((("A", ("a", "na")), ("B", ("b",))))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "VariableTable(entries=(('A', ('a', 'na')), ('B', ('b',))))"
        )
        assert a != VariableTable((("B", ("b",)), ("A", ("a", "na"))))


class TestProduct:
    def test_misconception_pair_entry(self):
        p = factor_product(mfactor("A", "B"), mfactor("B", "C"), VT)
        assert p.vars == ("A", "B", "C")
        assert factor_entry(p, {"A": "a", "B": "b", "C": "c"}, VT) == 1000.0

    def test_all_ones_is_unit(self):
        f = mfactor("A", "D")
        p = factor_product(ones_factor(VT, ("A", "D")), f, VT)
        assert p.vars == f.vars
        assert np.array_equal(p.values, f.values)

    def test_full_misconception_product_entry(self):
        p = ones_factor(VT, ())
        for pair in MISCONCEPTION_TABLES:
            p = factor_product(p, mfactor(*pair), VT)
        assert factor_entry(p, {"A": "a", "B": "b", "C": "c", "D": "d"}, VT) == 100000.0
        # every entry agrees with the dict-arithmetic oracle
        for assignment in misconception_assignments():
            assert factor_entry(p, assignment, VT) == misconception_product(assignment)

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors())
    def test_commutative(self, data):
        vt, (f, g) = data
        ab = factor_product(f, g, vt)
        ba = factor_product(g, f, vt)
        assert ab.vars == ba.vars
        np.testing.assert_allclose(ab.values, ba.values, rtol=1e-12, atol=0)

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors(n_factors=3))
    def test_associative(self, data):
        vt, (f, g, h) = data
        left = factor_product(factor_product(f, g, vt), h, vt)
        right = factor_product(f, factor_product(g, h, vt), vt)
        assert left.vars == right.vars
        np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-300)

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors(n_factors=1))
    def test_unit(self, data):
        vt, (f,) = data
        p = factor_product(f, ones_factor(vt, f.vars), vt)
        assert np.array_equal(p.values, f.values)


class TestMarginalize:
    def test_marginalize_nothing_is_identity(self):
        f = mfactor("A", "B")
        m = factor_marginalize(f, set(), VT)
        assert m.vars == f.vars and np.array_equal(m.values, f.values)

    def test_misconception_ac_marginal(self):
        p = ones_factor(VT, ())
        for pair in MISCONCEPTION_TABLES:
            p = factor_product(p, mfactor(*pair), VT)
        m = factor_marginalize(p, {"B", "D"}, VT)
        # oracle: 4-term sum over B and D at A=a, C=c
        expected = sum(
            misconception_product({"A": "a", "B": b, "C": "c", "D": d})
            for b in ("b", "nb")
            for d in ("d", "nd")
        )
        assert expected == 200200.0
        assert factor_entry(m, {"A": "a", "C": "c"}, VT) == expected

    def test_uniform_symmetry(self):
        f = ones_factor(VT, ("A", "B"))
        m = factor_marginalize(f, {"B"}, VT)
        assert np.array_equal(m.values, [2.0, 2.0])

    def test_unknown_variable_is_error(self):
        with pytest.raises(ValueError, match="unknown"):
            factor_marginalize(mfactor("A", "B"), {"C"}, VT)

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors(n_factors=1))
    def test_mass_conservation(self, data):
        vt, (f,) = data
        dropped = f.vars[: len(f.vars) // 2 + 1]
        m = factor_marginalize(f, dropped, vt)
        np.testing.assert_allclose(
            m.values.sum(), f.values.sum(), rtol=1e-12, atol=1e-300
        )

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors())
    def test_commutes_with_product_when_vars_private(self, data):
        # dropping variables that occur in only one operand commutes
        vt, (f, g) = data
        private = tuple(v for v in f.vars if v not in g.vars)
        if not private:
            return
        before = factor_marginalize(factor_product(f, g, vt), private, vt)
        after = factor_product(factor_marginalize(f, private, vt), g, vt)
        assert before.vars == after.vars
        np.testing.assert_allclose(before.values, after.values, rtol=1e-9, atol=1e-290)


class TestNormalizeToKernel:
    def test_even_column_halves(self):
        f = Factor(("C", "D"), [100.0, 100.0, 3.0, 1.0])
        g, lam = normalize_to_kernel(f, "D", VT)
        assert g.values[0] == 0.5 and g.values[1] == 0.5
        assert lam.vars == ("C",) and lam.values[0] == 200.0

    def test_zero_column_fills_uniformly(self):
        f = Factor(("C", "D"), [0.0, 0.0, 3.0, 1.0])
        g, lam = normalize_to_kernel(f, "D", VT)
        assert g.values[0] == 0.5 and g.values[1] == 0.5
        assert lam.values[0] == 0.0
        # reconstruction still holds everywhere: g * lam == f
        rebuilt = factor_product(kernel_to_factor(g, VT), lam, VT)
        assert np.array_equal(rebuilt.values, f.values)

    def test_already_normalized_is_unchanged(self):
        f = Factor(("D",), [0.3, 0.7])
        g, lam = normalize_to_kernel(f, "D", VT)
        assert np.array_equal(g.values, [0.3, 0.7])
        assert lam.vars == () and lam.values[0] == 1.0

    def test_child_before_parent_in_global_order(self):
        # conditioning A on D exercises the transpose path
        f = ones_factor(VT, ("A", "D"))
        g, _ = normalize_to_kernel(f, "A", VT)
        assert g.parents == ("D",)
        assert np.array_equal(g.values, [0.5, 0.5, 0.5, 0.5])

    @settings(max_examples=120, deadline=None)
    @given(table_and_factors(n_factors=1))
    def test_reconstruction_and_column_sums(self, data):
        vt, (f,) = data
        child = f.vars[-1]
        g, lam = normalize_to_kernel(f, child, vt)
        cols = g.values.reshape(-1, vt.card(child)).sum(axis=1)
        np.testing.assert_allclose(cols, 1.0, atol=1e-12)
        rebuilt = factor_product(kernel_to_factor(g, vt), lam, vt)
        mask = np.repeat(lam.values > 0, vt.card(child))
        grid = np.moveaxis(
            f.values.reshape(vt.shape(f.vars)), f.vars.index(child), -1
        ).ravel()
        rebuilt_grid = np.moveaxis(
            rebuilt.values.reshape(vt.shape(rebuilt.vars)),
            rebuilt.vars.index(child),
            -1,
        ).ravel()
        np.testing.assert_allclose(rebuilt_grid[mask], grid[mask], rtol=1e-12)


class TestNormalizeAgainstDefinition:
    """Kernel and mass against ``sum`` over the child axis and ``np.where``,
    bit for bit, for every child position, with zero columns, at 2 and 3
    states (column-by-column sums) and 9 states (numpy's pairwise sums)."""

    VT3 = VariableTable(
        (
            ("X", ("a", "b", "c")),
            ("Y", tuple("012345678")),
            ("Z", ("p", "q")),
            ("W", tuple("012345678")),
        )
    )

    @staticmethod
    def definition(f, child, vt):
        axis = f.vars.index(child)
        grid = f.values.reshape(vt.shape(f.vars))
        mass = grid.sum(axis=axis)
        moved = np.moveaxis(grid, axis, -1)
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(mass[..., None] > 0, moved / mass[..., None], 1.0 / vt.card(child))
        return g.ravel(), mass.ravel()

    @pytest.mark.parametrize("child", ["X", "Y", "Z", "W"])
    def test_every_child_position_with_zero_columns(self, child):
        values = np.random.default_rng(9).uniform(0.0, 3.0, size=(3, 9, 2, 9))
        values[0] = 0.0
        values[1, :, 0] = 0.0
        values[2, 4] = 0.0
        f = Factor(("X", "Y", "Z", "W"), values)
        g, lam = normalize_to_kernel(f, child, self.VT3)
        want_g, want_lam = self.definition(f, child, self.VT3)
        assert g.parents == tuple(v for v in "XYZW" if v != child)
        assert np.any(want_lam == 0.0)
        assert g.values.tobytes() == want_g.tobytes()
        assert lam.values.tobytes() == want_lam.tobytes()

    def test_nine_states_all_zero_fills_uniformly(self):
        f = Factor(("Y",), np.zeros(9))
        g, lam = normalize_to_kernel(f, "Y", self.VT3)
        assert np.array_equal(g.values, np.full(9, 1.0 / 9.0))
        assert lam.values.tolist() == [0.0]


class TestNoAliasing:
    """Tables copy what they are built from, so a caller's later writes
    never reach them."""

    @pytest.mark.parametrize("kind", ["factor", "kernel"])
    def test_caller_array_is_copied(self, kind):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Factor(("A", "B"), arr) if kind == "factor" else Kernel("B", ("A",), arr)
        assert not np.shares_memory(t.values, arr)
        arr[0, 0] = 99.0
        assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert not t.values.flags.writeable

    @pytest.mark.parametrize("kind", ["factor", "kernel"])
    def test_broadcast_view_is_copied(self, kind):
        base = np.array([1.0, 2.0])
        view = np.broadcast_to(base.reshape(2, 1), (2, 2))
        t = Factor(("A", "B"), view) if kind == "factor" else Kernel("B", ("A",), view)
        assert not np.shares_memory(t.values, base)
        assert t.values.flags.c_contiguous
        base[0] = 99.0
        assert t.values.tolist() == [1.0, 1.0, 2.0, 2.0]


class TestProptoEqual:
    def test_scaling(self):
        f = mfactor("A", "B")
        g = Factor(f.vars, 2.0 * f.values)
        assert propto_equal(f, g, 1e-9)
        assert propto_equal(g, f, 1e-9)

    def test_perturbation_fails(self):
        f = mfactor("A", "B")
        bumped = f.values.copy()
        bumped[0] += 10 * 1e-9 * bumped.max()
        assert not propto_equal(f, Factor(f.vars, bumped), 1e-9)

    def test_unnormalized_vs_normalized_joint(self):
        p = ones_factor(VT, ())
        for pair in MISCONCEPTION_TABLES:
            p = factor_product(p, mfactor(*pair), VT)
        normalized = Factor(p.vars, p.values / p.values.sum())
        assert propto_equal(p, normalized, 1e-9)

    def test_zero_factors(self):
        z = Factor(("A",), [0.0, 0.0])
        f = Factor(("A",), [1.0, 2.0])
        assert propto_equal(z, Factor(("A",), [0.0, 0.0]), 1e-9)
        assert not propto_equal(z, f, 1e-9)

    def test_var_mismatch_is_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            propto_equal(mfactor("A", "B"), mfactor("B", "C"), 1e-9)

    def test_transitive_on_scaled_chain(self):
        f = mfactor("C", "D")
        g = Factor(f.vars, 3.0 * f.values)
        h = Factor(f.vars, 0.25 * g.values)
        assert propto_equal(f, g, 1e-9)
        assert propto_equal(g, h, 1e-9)
        assert propto_equal(f, h, 1e-9)


class TestKernelConversions:
    def test_parentless_kernel_keeps_values(self):
        k = Kernel("A", (), [0.3, 0.7])
        f = kernel_to_factor(k, VT)
        assert f.vars == ("A",) and np.array_equal(f.values, [0.3, 0.7])

    def test_restrict_misconception_row(self):
        f = mfactor("A", "B")
        row = factor_restrict(f, {"A": "a"}, VT)
        assert row.vars == ("B",)
        assert np.array_equal(row.values, [10.0, 1.0])

    def test_restrict_unknown_state_is_error(self):
        with pytest.raises(ValueError, match="no state"):
            factor_restrict(mfactor("A", "B"), {"A": "zzz"}, VT)

    def test_kernel_factor_normalize_roundtrip(self):
        values = np.array([0.2, 0.8, 0.6, 0.4, 0.5, 0.5, 0.9, 0.1])
        k = Kernel("C", ("A", "B"), values)
        f = kernel_to_factor(k, VT)
        back, lam = normalize_to_kernel(f, "C", VT)
        assert back.parents == ("A", "B")
        np.testing.assert_allclose(back.values, values, rtol=1e-15)
        np.testing.assert_allclose(lam.values, 1.0, rtol=1e-15)

    def test_child_out_of_order_transposes(self):
        # kernel for A given D: factor layout must come back sorted (A, D)
        k = Kernel("A", ("D",), [0.1, 0.9, 0.4, 0.6])
        f = kernel_to_factor(k, VT)
        assert f.vars == ("A", "D")
        assert factor_entry(f, {"A": "a", "D": "d"}, VT) == 0.1
        assert factor_entry(f, {"A": "na", "D": "d"}, VT) == 0.9

    def test_enumerate_assignments_matches_layout(self):
        f = mfactor("A", "B")
        flat = [
            factor_entry(f, dict(zip(f.vars, labels)), VT)
            for labels in enumerate_assignments(VT, f.vars)
        ]
        assert np.array_equal(flat, f.values)
