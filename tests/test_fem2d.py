import math

import numpy as np
import pytest
import scipy.sparse as sp

from sgkron import fem2d
from sgkron.fem2d import (
    assemble_from_quad_values,
    assemble_load,
    assemble_stiffness,
    auto_alpha_bar,
    build_mesh,
    constant_field,
    field_extrema,
    fourier_coefficient,
    frequency_pair,
    lognormal_expansion_coeff,
    order_by_magnitude,
    sup_norm,
    tau_r,
)

# Published sup-norm decay of the cosine modes, 4 decimal places, m = 1..6.
SLOW_NORMS = [0.6079, 0.1520, 0.0675, 0.0380, 0.0243, 0.0169]
FAST_NORMS = [0.9239, 0.0577, 0.0114, 0.0036, 0.0015, 0.0007]


class TestMesh:
    def test_geometry(self):
        mesh = build_mesh(4)
        assert mesh.n_side == 16
        assert mesh.h == 1.0 / 16
        assert mesh.n_interior == 15 * 15

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_mesh(0)
        with pytest.raises(ValueError):
            build_mesh(11)


def coo_assembly(mesh, values):
    # Reference: element matrices summed into COO form, one matrix at a time.
    _, _, S_ref = fem2d._reference_tables()
    _, _, dof = fem2d._element_geometry(mesh)
    Ke = np.einsum("eq,qab->eab", values, S_ref)
    rows = np.repeat(dof[:, :, None], 4, axis=2)
    cols = np.repeat(dof[:, None, :], 4, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior
    K = sp.coo_matrix((Ke[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    K.sort_indices()
    return K


class TestStiffness:
    def test_unit_coefficient_stencil(self):
        # Q1 Laplacian on a uniform square grid: diagonal 8/3, all eight
        # neighbor couplings -1/3, independent of h.
        mesh = build_mesh(3)
        K = assemble_stiffness(mesh, constant_field(1.0)).toarray()
        n = mesh.n_side - 1
        center = (n // 2) * n + n // 2
        np.testing.assert_allclose(K[center, center], 8.0 / 3.0, rtol=1e-14)
        cx, cy = center % n, center // n
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                neighbor = (cy + dy) * n + (cx + dx)
                np.testing.assert_allclose(K[center, neighbor], -1.0 / 3.0, rtol=1e-14)
        np.testing.assert_allclose(K[center].sum(), 0.0, atol=1e-14)

    def test_symmetric_positive_definite(self):
        mesh = build_mesh(3)
        K = assemble_stiffness(mesh, constant_field(2.5)).toarray()
        np.testing.assert_allclose(K, K.T, atol=0)
        assert np.linalg.eigvalsh(K).min() > 0

    def test_linearity_in_coefficient(self):
        mesh = build_mesh(3)
        a = fourier_coefficient(1, 2.0, 0.6)
        b = fourier_coefficient(2, 2.0, 0.6)
        combined = fem2d.CoefficientField(
            lambda x1, x2: a(x1, x2) + 3.0 * b(x1, x2), "a+3b"
        )
        K = assemble_stiffness(mesh, combined).toarray()
        Ka = assemble_stiffness(mesh, a).toarray()
        Kb = assemble_stiffness(mesh, b).toarray()
        np.testing.assert_allclose(K, Ka + 3.0 * Kb, atol=1e-14)

    def test_quad_values_shape_check(self):
        mesh = build_mesh(2)
        with pytest.raises(ValueError):
            assemble_from_quad_values(mesh, np.ones((3, 9)))
        with pytest.raises(ValueError):
            assemble_from_quad_values(mesh, np.ones((2, 3, 16, 9)))

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_batched_equals_per_matrix(self, level):
        mesh = build_mesh(level)
        rng = np.random.default_rng(level)
        values = rng.random((7, mesh.n_side**2, 9)) + 0.5
        batch = assemble_from_quad_values(mesh, values)
        assert len(batch) == 7
        for vals, K in zip(values, batch):
            single = assemble_from_quad_values(mesh, vals)
            np.testing.assert_array_equal(single.indptr, K.indptr)
            np.testing.assert_array_equal(single.indices, K.indices)
            np.testing.assert_array_equal(single.data, K.data)
            ref = coo_assembly(mesh, vals)
            np.testing.assert_array_equal(ref.indptr, K.indptr)
            np.testing.assert_array_equal(ref.indices, K.indices)
            err = np.linalg.norm(K.data - ref.data) / np.linalg.norm(ref.data)
            assert err <= 1e-15
            assert K.has_canonical_format
            assert abs(K - K.T).max() == 0.0

    def test_load_vector(self):
        mesh = build_mesh(4)
        f = assemble_load(mesh)
        np.testing.assert_allclose(f, mesh.h**2 * np.ones(mesh.n_interior), rtol=0)


class TestCosineModes:
    def test_frequency_pairs_start(self):
        assert [frequency_pair(m) for m in range(1, 7)] == [
            (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3),
        ]

    def test_frequency_pairs_unique(self):
        pairs = [frequency_pair(m) for m in range(1, 37)]
        assert len(set(pairs)) == 36
        totals = [b1 + b2 for b1, b2 in pairs]
        assert totals == sorted(totals)

    def test_mode_zero_is_unit_mean(self):
        b0 = fourier_coefficient(0, 2.0, 0.547)
        x = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(b0(x, x), np.ones(7))

    @pytest.mark.parametrize(
        "sigma,abar,table", [(2.0, 0.6079, SLOW_NORMS), (4.0, 0.9239, FAST_NORMS)]
    )
    def test_sup_norm_table(self, sigma, abar, table):
        for m, expected in enumerate(table, start=1):
            field = fourier_coefficient(m, sigma, abar)
            np.testing.assert_allclose(sup_norm(field), expected, atol=5e-5)

    def test_sup_norm_exact_on_grid(self):
        # Integer-frequency cosines attain their sup at grid points.
        field = fourier_coefficient(5, 2.0, 0.6079)
        np.testing.assert_allclose(sup_norm(field), 0.6079 / 25.0, rtol=1e-13)

    def test_field_extrema(self):
        lo, hi = field_extrema(fourier_coefficient(1, 2.0, 0.6))
        np.testing.assert_allclose([lo, hi], [-0.6, 0.6], rtol=1e-13)
        lo, hi = field_extrema(constant_field(3.0))
        assert lo == hi == 3.0


class TestAutoAlphaBar:
    def test_reference_calibrations(self):
        # 4-decimal reference calibrations; the sigma=4 one sits on a
        # rounding boundary (0.92384.. prints as 0.9239), hence 1e-4.
        np.testing.assert_allclose(auto_alpha_bar(2.0), 0.6079, atol=1e-4)
        np.testing.assert_allclose(auto_alpha_bar(4.0), 0.9239, atol=1e-4)
        np.testing.assert_allclose(auto_alpha_bar(10.0), 0.9989, atol=1e-4)

    def test_against_bracketing_oracle(self):
        # zeta(s) bracketed by partial sum plus integral tail bounds.
        for s in (1.5, 2.0, 3.0, 4.0, 7.5):
            n = 2000
            partial = sum(m**-s for m in range(1, n + 1))
            lower = partial + (n + 1) ** (1 - s) / (s - 1)
            upper = partial + n ** (1 - s) / (s - 1)
            val = auto_alpha_bar(s)
            assert 0.9999 / upper - 1e-10 <= val <= 0.9999 / lower + 1e-10

    def test_series_mass_is_calibrated(self):
        # sum_m sup-norm(a_m) telescopes to 0.9999 as the mode count grows.
        abar = auto_alpha_bar(3.0)
        total = sum(abar * m**-3.0 for m in range(1, 200000))
        np.testing.assert_allclose(total, 0.9999, atol=1e-8)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            auto_alpha_bar(1.0)


class TestTauR:
    def test_empty_prefix_is_zero(self):
        assert tau_r([], 1.0) == 0.0

    def test_monotone_in_prefix(self):
        fields = [fourier_coefficient(m, 2.0, 0.6079) for m in range(1, 9)]
        taus = [tau_r(fields[:r], 1.0) for r in range(9)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        assert taus[-1] < 0.9999

    def test_scaling_by_min(self):
        fields = [fourier_coefficient(1, 2.0, 0.6079)]
        np.testing.assert_allclose(tau_r(fields, 2.0), tau_r(fields, 1.0) / 2.0, rtol=1e-14)

    def test_single_mode_value(self):
        # One cosine mode: sup of |a_1| equals its amplitude.
        fields = [fourier_coefficient(1, 4.0, 0.9239)]
        np.testing.assert_allclose(tau_r(fields, 1.0), 0.9239, rtol=1e-13)


class TestLognormalCoeff:
    def gauss_hermite_oracle(self, alpha, b_fields, b0, x1, x2, n=48):
        # E[exp(b) psi_alpha(y)] factorizes over independent parameters.
        y, w = np.polynomial.hermite_e.hermegauss(n)
        w = w / math.sqrt(2.0 * math.pi)
        from sgkron.orthopoly import HERMITE, evaluate

        out = np.exp(b0(x1, x2))
        for m, b in enumerate(b_fields):
            a = alpha[m] if m < len(alpha) else 0
            bm = b(x1, x2)
            factor = np.array(
                [np.sum(w * np.exp(t * y) * evaluate(HERMITE, a, y)) for t in np.atleast_1d(bm)]
            ).reshape(np.shape(bm))
            out = out * factor
        return out

    def test_against_quadrature(self):
        b_fields = [fourier_coefficient(m, 2.0, 0.547) for m in (1, 2, 3)]
        b0 = fourier_coefficient(0, 2.0, 0.547)
        x1 = np.array([0.0, 0.3, 0.65])
        x2 = np.array([0.0, 0.7, 0.15])
        for alpha in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 0, 0), (1, 1, 2)]:
            coeff = lognormal_expansion_coeff(alpha, b_fields, b0)
            ref = self.gauss_hermite_oracle(alpha, b_fields, b0, x1, x2)
            np.testing.assert_allclose(coeff(x1, x2), ref, atol=1e-10)

    def test_zero_alpha_is_envelope(self):
        b_fields = [fourier_coefficient(1, 2.0, 0.5)]
        b0 = constant_field(0.0)
        coeff = lognormal_expansion_coeff((0,), b_fields, b0)
        x = np.array([0.25])
        expected = np.exp(0.5 * b_fields[0](x, x) ** 2)
        np.testing.assert_allclose(coeff(x, x), expected, rtol=1e-14)

    def test_rejects_bad_alpha(self):
        b_fields = [constant_field(0.1)]
        with pytest.raises(ValueError):
            lognormal_expansion_coeff((-1,), b_fields, constant_field(0.0))
        with pytest.raises(ValueError):
            lognormal_expansion_coeff((1, 1), b_fields, constant_field(0.0))


class TestOrderByMagnitude:
    def test_descending_and_matches_sup_norm(self):
        b_fields = [fourier_coefficient(m, 2.0, 0.547) for m in range(1, 7)]
        b0 = fourier_coefficient(0, 2.0, 0.547)
        from sgkron.multiindex import build_index_set

        S = build_index_set(3, 3)
        ordered = order_by_magnitude(S.indices, b_fields, b0)
        mags = [mag for _, mag in ordered]
        assert all(b <= a for a, b in zip(mags, mags[1:]))
        for alpha, mag in ordered[:10]:
            ref = sup_norm(lognormal_expansion_coeff(alpha, b_fields, b0))
            np.testing.assert_allclose(mag, ref, rtol=1e-10)

    def test_zero_index_leads(self):
        # The mean-field coefficient dominates for these amplitudes.
        b_fields = [fourier_coefficient(m, 2.0, 0.547) for m in range(1, 5)]
        b0 = fourier_coefficient(0, 2.0, 0.547)
        from sgkron.multiindex import build_index_set

        S = build_index_set(4, 2)
        ordered = order_by_magnitude(S.indices, b_fields, b0)
        assert ordered[0][0] == (0, 0, 0, 0)

    def test_exact_ties_keep_input_order(self):
        # Two identical parameter fields make (0,1) and (1,0) exact ties;
        # the stable sort must keep the degree-lex input order.
        b = fourier_coefficient(1, 2.0, 0.5)
        ordered = order_by_magnitude(
            [(0, 0), (0, 1), (1, 0)], [b, b], constant_field(0.0)
        )
        assert [alpha for alpha, _ in ordered] == [(0, 0), (0, 1), (1, 0)]
        assert ordered[1][1] == ordered[2][1]

    def test_empty_input(self):
        assert order_by_magnitude([], [constant_field(0.1)], constant_field(0.0)) == []

    def test_too_wide_alpha_rejected(self):
        with pytest.raises(ValueError):
            order_by_magnitude([(1, 1)], [constant_field(0.1)], constant_field(0.0))
