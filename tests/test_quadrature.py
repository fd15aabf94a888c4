import pytest

from torusns.quadrature import (DEFAULT_DEGREE, grundmann_moller,
                                monomial_integral, tet_rule)


def exactness_defect(rule):
    worst = 0.0
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            for r in range(rule.degree + 1 - p - q):
                approx = float((rule.weights * rule.points[:, 0] ** p
                                * rule.points[:, 1] ** q
                                * rule.points[:, 2] ** r).sum())
                worst = max(worst, abs(approx - monomial_integral(p, q, r)))
    return worst


@pytest.mark.parametrize("index", [0, 1, 2, 5])
def test_monomial_exactness(index):
    rule = grundmann_moller(index)
    assert exactness_defect(rule) < 1e-14


def test_weights_sum_to_volume():
    rule = tet_rule()
    assert abs(rule.weights.sum() - 1.0 / 6.0) < 1e-15


def test_points_inside_reference_tet():
    rule = tet_rule()
    assert rule.points.min() > 0.0
    assert rule.points.sum(axis=1).max() < 1.0


def test_default_degree_covers_triple_products():
    rule = tet_rule(DEFAULT_DEGREE)
    assert rule.degree >= 11


def test_requested_degree_rounds_up():
    assert tet_rule(4).degree == 5
    assert tet_rule(8).degree == 9


def test_bad_index_rejected():
    with pytest.raises(ValueError):
        grundmann_moller(-1)
