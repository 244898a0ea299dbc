"""Tests for closed-form bound constants and dense inclusion verification."""

import numpy as np
import pytest

from sgkron import kronsys, spectral
from sgkron.precond import NotPositiveDefiniteError
from sgkron.verify import SmallConfig

# Fluctuation sup-norms of the decaying cosine family on the unit square,
# slow (sigma_tilde = 2) and fast (sigma_tilde = 4), m = 1..6.
SLOW_NORMS = [0.6079, 0.1520, 0.0675, 0.0380, 0.0243, 0.0169]
FAST_NORMS = [0.9239, 0.0577, 0.0114, 0.0036, 0.0015, 0.0007]


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    return R.T @ R + (n if shift is None else shift) * np.eye(n)


class TestComputeBounds:
    def test_closed_forms_generic(self):
        b = spectral.compute_bounds(
            2, a0_min=0.5, a0_max=2.0, tau=0.8, tau_r=0.3, sum_norms_r=0.5 * 0.3
        )
        assert np.isclose(b.theta_r, (1 - 0.8) * 0.5 / (2.0 + 0.5 * 0.3), rtol=1e-14)
        assert np.isclose(b.Theta_r, (2.0 + 0.5 * 0.8) / ((1 - 0.3) * 0.5), rtol=1e-14)
        assert np.isclose(b.delta_r, 0.3**2 / (1 - 0.3), rtol=1e-14)

    def test_gauss_seidel_degradation_single_term(self):
        b = spectral.compute_bounds(
            1, a0_min=1.0, a0_max=1.0, tau=0.9988, tau_r=0.9239, sum_norms_r=1.0 * 0.9239
        )
        assert np.isclose(b.delta_r, 0.9239**2 / (1 - 0.9239), rtol=1e-14)
        assert abs(b.delta_r - 11.2167) < 1e-3

    def test_sum_norms_override(self):
        # delta_r reads sum_norms_r, not a0_min * tau_r (0.6 here).
        b = spectral.compute_bounds(
            1, a0_min=2.0, a0_max=2.0, tau=0.8, tau_r=0.3, sum_norms_r=0.5
        )
        assert np.isclose(b.delta_r, (0.5 / 2.0) ** 2 / (1 - 0.3), rtol=1e-14)

    def test_zero_truncation_degenerate(self):
        b = spectral.compute_bounds(
            0, a0_min=1.3, a0_max=1.7, tau=0.5, tau_r=0.0, sum_norms_r=1.3 * 0.0
        )
        assert b.delta_r == 0.0
        assert np.isclose(b.theta_r, 0.5 * 1.3 / 1.7, rtol=1e-14)
        assert np.isclose(b.Theta_r, (1.7 + 1.3 * 0.5) / 1.3, rtol=1e-14)

    def test_invariants(self):
        for tau_r in (0.0, 0.2, 0.5, 0.69):
            b = spectral.compute_bounds(
                1, 0.8, 1.9, tau=0.7, tau_r=tau_r, sum_norms_r=0.8 * tau_r
            )
            assert b.theta_r > 0
            assert b.Theta_r >= b.theta_r
            assert 0 <= b.tau_r <= b.tau < 1
            assert b.delta_r >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral.compute_bounds(0, a0_min=0.0, a0_max=1.0, tau=0.5, tau_r=0.0, sum_norms_r=0.0)
        with pytest.raises(ValueError):
            spectral.compute_bounds(0, a0_min=-1.0, a0_max=1.0, tau=0.5, tau_r=0.0, sum_norms_r=0.0)
        with pytest.raises(ValueError):
            spectral.compute_bounds(1, a0_min=1.0, a0_max=1.0, tau=0.5, tau_r=0.6, sum_norms_r=0.6)
        with pytest.raises(ValueError):
            spectral.compute_bounds(
                1, a0_min=1.0, a0_max=1.0, tau=0.5, tau_r=-0.1, sum_norms_r=-0.1
            )
        with pytest.raises(ValueError):
            spectral.compute_bounds(0, a0_min=1.0, a0_max=1.0, tau=1.0, tau_r=0.0, sum_norms_r=0.0)

    @pytest.mark.parametrize("norms", [SLOW_NORMS, FAST_NORMS])
    def test_bound_interval_widens_with_truncation_order(self, norms):
        # The closed-form interval [theta_r, Theta_r] widens as tau_r grows
        # toward tau: theta falls, Theta rises, so Theta/theta rises.  The
        # observed preconditioned spectra tighten instead; that is covered by
        # TestVerifyInclusions.test_observed_spectrum_tightens.
        tau = sum(norms)
        prefix = np.cumsum([0.0] + norms)
        bounds = [
            spectral.compute_bounds(r, 1.0, 1.0, tau=tau, tau_r=prefix[r], sum_norms_r=prefix[r])
            for r in range(len(prefix))
        ]
        thetas = [b.theta_r for b in bounds]
        Thetas = [b.Theta_r for b in bounds]
        ratios = [T / t for T, t in zip(Thetas, thetas)]
        assert all(b1 <= a + 1e-15 for a, b1 in zip(thetas, thetas[1:]))
        assert all(b1 >= a - 1e-15 for a, b1 in zip(Thetas, Thetas[1:]))
        assert all(b1 >= a for a, b1 in zip(ratios, ratios[1:]))
        deltas = [b.delta_r for b in bounds]
        assert all(b1 >= a for a, b1 in zip(deltas, deltas[1:]))


class TestEigRange:
    def test_identical_operators(self):
        A = random_spd(25, seed=42)
        lo, hi = spectral.eig_range(A, A)
        assert np.isclose(lo, 1.0, atol=1e-10)
        assert np.isclose(hi, 1.0, atol=1e-10)

    def test_diagonal_case(self):
        lo, hi = spectral.eig_range(np.eye(2), np.diag([2.0, 5.0]))
        assert np.isclose(lo, 2.0, rtol=1e-12)
        assert np.isclose(hi, 5.0, rtol=1e-12)

    def test_matches_direct_pencil_solve(self):
        A = random_spd(30, seed=1)
        B = random_spd(30, seed=2)
        w = spectral.eig_spectrum(B, A)
        direct = np.sort(np.linalg.eigvals(np.linalg.solve(B, A)).real)
        np.testing.assert_allclose(w, direct, rtol=1e-8)

    def test_spectrum_sorted_complete(self):
        A = random_spd(12, seed=3)
        B = random_spd(12, seed=4)
        w = spectral.eig_spectrum(B, A)
        assert w.shape == (12,)
        assert np.all(np.diff(w) >= 0)

    def test_size_guard(self):
        big = np.eye(kronsys.DENSE_GUARD + 1)
        with pytest.raises(ValueError, match="dimension"):
            spectral.eig_range(big, big)

    def test_rejects_indefinite(self):
        A = np.eye(3)
        bad = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError):
            spectral.eig_range(bad, A)
        with pytest.raises(NotPositiveDefiniteError):
            spectral.eig_range(A, bad)


def tiny_affine(sigma_tilde):
    return SmallConfig(sigma_tilde=sigma_tilde).build()


class TestVerifyInclusions:
    def test_full_truncation_spectrum_is_one(self):
        op, _, ctx = tiny_affine(2.0)
        checks = spectral.verify_inclusions(op, ctx, r_values=[3])
        by_claim = {c.claim: c for c in checks}
        c = by_claim["trunc_vs_system"]
        assert np.isclose(c.observed_lo, 1.0, atol=1e-9)
        assert np.isclose(c.observed_hi, 1.0, atol=1e-9)

    @pytest.mark.parametrize("sigma_tilde", [2.0, 4.0])
    def test_observed_spectrum_tightens(self, sigma_tilde):
        op, _, ctx = tiny_affine(sigma_tilde)
        checks = spectral.verify_inclusions(op, ctx, r_values=range(4))
        devs = [
            max(abs(c.observed_lo - 1.0), abs(c.observed_hi - 1.0))
            for c in checks
            if c.claim == "trunc_vs_system"
        ]
        assert all(b <= a + 1e-10 for a, b in zip(devs, devs[1:]))

    def test_gauss_seidel_lower_edge_is_one(self):
        op, _, ctx = tiny_affine(2.0)
        checks = spectral.verify_inclusions(op, ctx, r_values=range(4))
        for c in checks:
            if c.claim == "sbgs_vs_trunc":
                assert c.bound_lo == 1.0
                assert c.observed_lo >= 1.0 - 1e-8

    def test_mean_vs_trunc_bounds_use_tau_r(self):
        op, _, ctx = tiny_affine(2.0)
        checks = spectral.verify_inclusions(op, ctx, r_values=range(4))
        for c in checks:
            if c.claim == "mean_vs_trunc":
                assert np.isclose(c.bound_lo, 1.0 - ctx.tau_table[c.r], rtol=1e-12)
                assert np.isclose(c.bound_hi, 1.0 + ctx.tau_table[c.r], rtol=1e-12)

    def test_affine_bounds_read_the_context_and_clamp_r(self):
        _, _, ctx = tiny_affine(2.0)  # M = 3
        b = spectral.affine_bounds(ctx, 2)
        ref = spectral.compute_bounds(
            2, ctx.a0_min, ctx.a0_max, ctx.tau, ctx.tau_table[2], ctx.sum_norms(2)
        )
        assert b == ref
        clamped = spectral.affine_bounds(ctx, 7)
        assert clamped.r == 7
        assert clamped.tau_r == ctx.tau_table[3] == ctx.tau
        assert clamped.delta_r == spectral.affine_bounds(ctx, 3).delta_r

    def test_size_guard(self):
        op, _, ctx = SmallConfig(level=5).build()
        assert op.dim > kronsys.DENSE_GUARD
        with pytest.raises(ValueError, match="dimension"):
            spectral.verify_inclusions(op, ctx, r_values=[0])


@pytest.fixture(scope="module")
def report():
    op, _, _ = SmallConfig("lognormal", k=3).build()
    return spectral.lognormal_spd_report(op, r_values=range(6))


class TestLognormalSpdReport:
    def test_row_layout(self, report):
        assert len(report) == 12
        assert [c.claim for c in report[::2]] == ["trunc_spd"] * 6
        assert [c.claim for c in report[1::2]] == ["sbgs_spd"] * 6

    def test_truncation_indefinite_at_r1_only(self, report):
        flags = {c.r: c.applicable for c in report if c.claim == "trunc_spd"}
        assert flags == {0: True, 1: False, 2: True, 3: True, 4: True, 5: True}
        indefinite = [c for c in report if c.claim == "trunc_spd" and not c.applicable]
        assert indefinite[0].observed_lo < 0

    def test_size_guard(self):
        op, _, _ = SmallConfig("lognormal", level=4, k=3).build()
        with pytest.raises(ValueError, match="dimension"):
            spectral.lognormal_spd_report(op, r_values=[0])
