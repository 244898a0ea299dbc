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
from sgkron.kronsys import build_affine_system
from sgkron.multiindex import build_index_set

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
    _, _, S_ref, _ = fem2d._reference_tables()
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
        K = assemble_stiffness(mesh, lambda x1, x2: a(x1, x2) + 3.0 * b(x1, x2)).toarray()
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

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_gradient_map_factors_stiffness(self, level):
        # G^T diag(c) G, G the sparse matrix of the element form, c the
        # quadrature values repeated for both directions.
        mesh = build_mesh(level)
        corners, table = fem2d.gradient_map(mesh)
        assert not corners.flags.writeable and not table.flags.writeable
        nel, n = corners.shape[0], mesh.n_interior
        d, e, q, a = np.meshgrid(range(2), range(nel), range(9), range(4), indexing="ij")
        keep = corners[e, a] < n
        G = sp.csr_matrix(
            (table[d, q, a][keep], ((d * nel * 9 + e * 9 + q)[keep], corners[e, a][keep])),
            shape=(2 * nel * 9, n),
        )
        c = np.random.default_rng(level).random((nel, 9)) + 0.5
        K = assemble_from_quad_values(mesh, c).toarray()
        GtcG = (G.T @ sp.diags(np.tile(c.ravel(), 2)) @ G).toarray()
        assert np.linalg.norm(GtcG - K) <= 1e-14 * np.linalg.norm(K)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_corner_sums_transpose_the_corner_gather(self, level):
        # The column scatter through gradient_map's corners, corner by corner
        # (column n_interior takes the boundary corners and is dropped): the
        # same bits, with and without leading axes.
        mesh = build_mesh(level)
        corners, _ = fem2d.gradient_map(mesh)
        Z = np.random.default_rng(level).standard_normal((3, corners.shape[0], 4))
        ref = np.zeros((3, mesh.n_interior + 1))
        for a in range(4):
            ref[:, corners[:, a]] += Z[:, :, a]
        np.testing.assert_array_equal(fem2d.corner_sums(Z), ref[:, :-1])
        np.testing.assert_array_equal(fem2d.corner_sums(Z[1]), ref[1, :-1])

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

    def test_zeta_matches_scipy(self):
        # Bit for bit at the named decays' rates (and 3), so the preset rows
        # keep their amplitudes; within 2 ulp of scipy on a sweep.  Below
        # ~1.5 scipy itself is up to 3 ulp from the exact value (40-digit
        # mpmath), where the Euler-Maclaurin sum stays within 1.
        from scipy.special import zeta

        for s in (2.0, 3.0, 4.0):
            assert fem2d._zeta(s) == zeta(s)
            assert auto_alpha_bar(s) == 0.9999 / float(zeta(s))
        for s in np.linspace(1.5, 12.0, 211):
            ref = zeta(s)
            assert abs(fem2d._zeta(float(s)) - ref) <= 2 * np.spacing(ref), s


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

    @pytest.mark.parametrize("M", [4, 8])
    def test_tables_equal_per_prefix_sampling(self, M):
        # Reference: every prefix resampled on its own; the closed-form
        # tables of the affine build must agree bit for bit.
        fields = [fourier_coefficient(m, 2.0, 0.6079) for m in range(1, M + 1)]
        _, _, ctx = build_affine_system(build_mesh(1), M, 0, 2.0, 0.6079)
        assert ctx.norm_table == tuple(sup_norm(f) for f in fields)
        assert ctx.tau_table == tuple(tau_r(fields[:r], 1.0) for r in range(M + 1))


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

    def test_exact_product_ties_keep_degree_lex_order(self):
        # At sigma_tilde = 2, a_2 a_3 = a_1 a_6 and a_3 a_4 = a_2 a_6 =
        # a_1 a_12 exactly (2 * 3 = 1 * 6, 3 * 4 = 2 * 6 = 1 * 12); rounding
        # must not break these ties.
        b_fields = [fourier_coefficient(m, 2.0, 0.547) for m in range(1, 13)]
        b0 = fourier_coefficient(0, 2.0, 0.547)
        ordered = order_by_magnitude(build_index_set(12, 2).indices, b_fields, b0)
        alphas = [alpha for alpha, _ in ordered]

        def pair(i, j):
            return tuple(int(m in (i, j)) for m in range(1, 13))

        for group in ([(2, 3), (1, 6)], [(3, 4), (2, 6), (1, 12)]):
            at = [alphas.index(pair(i, j)) for i, j in group]
            assert at == list(range(at[0], at[0] + len(group))), group
            mags = [ordered[i][1] for i in at]
            np.testing.assert_allclose(mags, mags[0], rtol=1e-14)

    def test_zero_amplitude_is_degree_lex(self):
        b_fields = [fourier_coefficient(m, 2.0, 0.0) for m in range(1, 5)]
        S = build_index_set(4, 3)
        ordered = order_by_magnitude(S.indices, b_fields, fourier_coefficient(0, 2.0, 0.0))
        assert [alpha for alpha, _ in ordered] == list(S.indices)
        assert ordered[0][1] == math.e
        assert all(mag == 0.0 for _, mag in ordered[1:])

    def test_empty_input(self):
        assert order_by_magnitude([], [constant_field(0.1)], constant_field(0.0)) == []

    def test_too_wide_alpha_rejected(self):
        with pytest.raises(ValueError):
            order_by_magnitude([(1, 1)], [constant_field(0.1)], constant_field(0.0))
