"""Weighted inner products, normalization candidates, and the audit."""
import math
from fractions import Fraction

import pytest

import congeg.quadrature as quadrature
from congeg.alphapoly import DomainError, ParameterError
from congeg.quadrature import (AccuracyError, QuadratureConfig, QuadratureResult,
                               audit_rows_to_csv, classical_norm,
                               conformable_inner_product,
                               conformable_inner_product_direct,
                               default_audit_grid, normalization_audit,
                               normalization_closed_form,
                               normalization_gamma_product, orthogonality_check)

HALF = Fraction(1, 2)
ONE = Fraction(1)
QUARTER = Fraction(1, 4)

CSV_HEADER = ("n,lambda,alpha,quadrature,closed_form,gamma_product,derived,"
              "rel_diff_quadrature_vs_derived")


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert (cfg.nodes, cfg.panels, cfg.rel_tol) == (16, 8, 1e-10)

    @pytest.mark.parametrize("kwargs", [
        {"nodes": 1}, {"nodes": 2.5}, {"panels": 0}, {"rel_tol": 0.0},
        {"rel_tol": -1e-3},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureConfig(**kwargs)


class TestDiagonals:
    def test_weight_one_order_one(self):
        got = conformable_inner_product(0, 0, ONE, ONE)
        assert got.value == pytest.approx(math.pi / 2, rel=1e-12)
        assert got.error >= 0.0

    def test_weight_one_order_half(self):
        got = conformable_inner_product(0, 0, ONE, HALF)
        assert got.value == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("n,lam,alpha", [
        (2, ONE, ONE), (3, Fraction(3), HALF), (1, Fraction(3), QUARTER),
        (4, ONE, Fraction(3, 4)),
    ])
    def test_matches_scaled_classical(self, n, lam, alpha):
        got = conformable_inner_product(n, n, lam, alpha).value
        want = classical_norm(n, lam) / float(alpha)
        assert got == pytest.approx(want, rel=1e-10)

    def test_classical_norm_frozen(self):
        assert classical_norm(2, ONE) == pytest.approx(math.pi / 2, rel=1e-15)
        assert classical_norm(0, ONE) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_bad_weight(self):
        with pytest.raises(ParameterError):
            conformable_inner_product(0, 0, Fraction(0), ONE)


class TestOffDiagonals:
    @pytest.mark.parametrize("m,n", [(0, 1), (1, 3), (2, 4), (0, 2)])
    def test_vanish_relative_to_diagonal(self, m, n):
        lam, alpha = Fraction(3), HALF
        cross = conformable_inner_product(m, n, lam, alpha).value
        scale = math.sqrt(conformable_inner_product(m, m, lam, alpha).value
                          * conformable_inner_product(n, n, lam, alpha).value)
        assert abs(cross) <= 1e-10 * scale

    def test_sweep_report(self):
        rep = orthogonality_check(n_max=4)
        assert rep.status == "numeric-pass"
        assert rep.max_residual is not None and rep.max_residual <= 1e-8

    def test_high_degree_sweep_is_exactly_zero(self):
        # the moment sums are exact, so every off-diagonal is exactly 0.0
        rep = orthogonality_check(
            n_max=32, lambdas=(HALF, ONE, Fraction(5, 2), Fraction(3)))
        assert rep.status == "numeric-pass"
        assert rep.max_residual == 0.0


class TestExactDiagonals:
    @pytest.mark.parametrize("n,lam,alpha", [
        (30, HALF, QUARTER), (40, Fraction(5, 2), Fraction(1, 3)),
        (60, Fraction(3), ONE), (60, Fraction(343, 11), Fraction(2, 3)),
    ])
    def test_within_error_of_high_precision_reference(self, n, lam, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
            ref = (mpmath.pi * mpmath.mpf(2) ** (1 - 2 * lam_mp)
                   * mpmath.gamma(n + 2 * lam_mp)
                   / (mpmath.factorial(n) * (n + lam_mp) * mpmath.gamma(lam_mp) ** 2)
                   * alpha.denominator / alpha.numerator)
            got = conformable_inner_product(n, n, lam, alpha)
            assert got.nodes_used == 0
            assert 0.0 < got.error <= 1e-14 * got.value
            assert abs(mpmath.mpf(got.value) - ref) <= got.error


class TestDirectRoute:
    @pytest.mark.parametrize("m,n,lam,alpha", [
        (2, 2, Fraction(3), HALF),
        (1, 1, ONE, QUARTER),
        (3, 3, ONE, Fraction(3, 4)),
        (1, 3, Fraction(3), HALF),
        (0, 0, HALF, ONE),
    ])
    def test_agrees_with_substituted_route(self, m, n, lam, alpha):
        direct = conformable_inner_product_direct(m, n, lam, alpha)
        subst = conformable_inner_product(m, n, lam, alpha)
        scale = max(abs(subst.value),
                    conformable_inner_product(m, m, lam, alpha).value)
        assert abs(direct.value - subst.value) <= 1e-7 * scale


class TestNormalizationFormulas:
    def test_closed_form_anchor(self):
        # degree 0, weight 1, order 1: sqrt(pi)/2, not the quadrature pi/2
        got = normalization_closed_form(0, ONE, ONE)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_product_form_anchor(self):
        assert normalization_gamma_product(0, ONE, ONE) == pytest.approx(
            math.pi / 2, rel=1e-14)

    def test_product_form_matches_classical_at_order_one(self):
        for n in range(5):
            for lam in (ONE, Fraction(3), Fraction(5, 2)):
                assert normalization_gamma_product(n, lam, ONE) == pytest.approx(
                    classical_norm(n, lam), rel=1e-12)

    @pytest.mark.parametrize("n,lam,alpha", [
        (0, ONE, Fraction(3, 4)), (2, Fraction(3), QUARTER), (3, ONE, ONE),
    ])
    def test_product_is_root_pi_alpha_times_closed(self, n, lam, alpha):
        ratio = (normalization_gamma_product(n, lam, alpha)
                 / normalization_closed_form(n, lam, alpha))
        assert ratio == pytest.approx(math.sqrt(math.pi * float(alpha)), rel=1e-12)

    def test_pole_at_order_half(self):
        # 5/2 - a - 1/a hits zero at a = 1/2
        with pytest.raises(DomainError):
            normalization_closed_form(0, ONE, HALF)
        with pytest.raises(DomainError):
            normalization_gamma_product(2, Fraction(3), HALF)

    def test_validation(self):
        with pytest.raises(ParameterError):
            normalization_closed_form(-1, ONE, ONE)
        with pytest.raises(ParameterError):
            normalization_closed_form(0, Fraction(-1), ONE)


@pytest.fixture(scope="module")
def report():
    return normalization_audit()


class TestAudit:
    def test_quadrature_vs_derived_passes(self, report):
        assert report.status == "numeric-pass"
        assert report.max_residual is not None and report.max_residual <= 1e-6

    def test_high_degree_grid_passes(self):
        rep = normalization_audit(default_audit_grid(32))
        assert len(rep.table) == 6 * 33
        assert rep.status == "numeric-pass"

    def test_grid_shape(self, report):
        assert len(report.table) == len(default_audit_grid()) == 42

    def test_pole_rows_are_nan(self, report):
        nan_rows = [r for r in report.table if math.isnan(r.closed_form)]
        assert nan_rows
        assert all(float(r.alpha) == 0.5 for r in nan_rows)
        assert all(math.isnan(r.gamma_product) for r in nan_rows)

    def test_anchor_row_flagged_in_notes(self, report):
        row = next(r for r in report.table
                   if r.n == 0 and r.lam == 1 and float(r.alpha) == 1.0)
        assert row.closed_form == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
        assert row.quadrature == pytest.approx(math.pi / 2, rel=1e-10)
        assert "degree 0, weight 1, order 1" in report.notes

    def test_rows_keep_rel_diff(self, report):
        assert all(r.rel_diff_quadrature_vs_derived <= 1e-6 for r in report.table)

    def test_csv_layout(self, report):
        text = audit_rows_to_csv(report.table)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.table)
        assert text == audit_rows_to_csv(report.table)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1/4"

    def test_custom_grid(self):
        rep = normalization_audit([(0, ONE, ONE), (1, Fraction(3), HALF)])
        assert len(rep.table) == 2
        assert rep.status == "numeric-pass"


class TestAccuracyBudget:
    def test_budget_exhaustion_carries_best(self, monkeypatch):
        # a 2-node rule cannot hit 1e-300 relative, so the one permitted
        # pass (doubling budget patched to zero) must give up
        monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 0)
        cfg = QuadratureConfig(nodes=2, panels=1, rel_tol=1e-300)
        with pytest.raises(AccuracyError) as info:
            conformable_inner_product_direct(2, 2, Fraction(3), HALF, cfg)
        best = info.value.best
        assert isinstance(best, QuadratureResult)
        assert best.value == pytest.approx(classical_norm(2, Fraction(3)) / 0.5,
                                           rel=1e-3)
        assert best.error > 0.0
