import numpy as np
import pytest
from fractions import Fraction

from cochainlab.groups import Group, SymmetricDistribution
from cochainlab.serialize import distribution_from_json, group_from_json


def test_group_order_and_elements():
    g = Group((2, 3))
    assert g.order == 6
    assert len(g.elements) == 6
    assert g.elements[0] == (0, 0)
    # lexicographic in the component order
    assert g.elements[1] == (0, 1)


def test_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Group((1,))
    with pytest.raises(ValueError):
        Group(())


def test_index_element_roundtrip():
    g = Group((4, 2, 3))
    for i in range(g.order):
        assert g.index(g.element(i)) == i


def test_add_neg_consistency():
    g = Group((5,))
    for a in range(5):
        for b in range(5):
            s = g.add(g.element(a), g.element(b))
            assert s == ((a + b) % 5,)
    for a in range(5):
        assert g.add(g.element(a), g.neg(g.element(a))) == g.identity


def test_neg_perm_matches_neg():
    g = Group((2, 4))
    for i in range(g.order):
        assert g.element(g.neg_perm[i]) == g.neg(g.element(i))


def test_add_table_matches_add():
    g = Group((3, 2))
    for i in range(g.order):
        for j in range(g.order):
            assert g.element(g.add_table[i, j]) == g.add(g.element(i), g.element(j))


def _loop_add_table(g):
    """Oracle: the |G|^2 Python loop of index(add(a, b))."""
    tab = np.empty((g.order, g.order), dtype=np.intp)
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            tab[i, j] = g.index(g.add(a, b))
    return tab


@pytest.mark.parametrize(
    "moduli", [(2,), (3,), (4,), (2, 2), (3, 4, 2), (512,), (2,) * 9], ids=str
)
def test_add_table_matches_the_loop(moduli):
    g = Group(moduli)
    tab = g.add_table
    assert tab.dtype == np.intp and tab.shape == (g.order, g.order)
    assert np.array_equal(tab, _loop_add_table(g))


def test_label_roundtrip():
    g = Group((2, 5))
    for i in range(g.order):
        e = g.element(i)
        assert g.parse_label(g.label(e)) == e


def test_uniform_distribution_exact():
    g = Group((3,))
    nu = SymmetricDistribution.uniform(g)
    assert nu.exact
    assert all(p == Fraction(1, 3) for p in nu.probs)


def test_distribution_requires_symmetry():
    g = Group((3,))
    # nu(1) != nu(2) = nu(-1) must be rejected
    with pytest.raises(ValueError):
        SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


def test_distribution_requires_positive_mass():
    g = Group((2,))
    with pytest.raises(ValueError):
        SymmetricDistribution(g, [Fraction(1), Fraction(0)])


def test_distribution_sum_must_be_one():
    g = Group((2,))
    with pytest.raises(ValueError):
        SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 3)])


def test_sampling_deterministic_and_in_range():
    g = Group((2, 2))
    nu = SymmetricDistribution.uniform(g)
    a = nu.sample_indices(np.random.default_rng(5), 1000)
    b = nu.sample_indices(np.random.default_rng(5), 1000)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < 4


def test_sampling_hits_expected_frequencies():
    g = Group((3,))
    nu = SymmetricDistribution(g, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    idx = nu.sample_indices(np.random.default_rng(17), 40000)
    freq = np.bincount(idx, minlength=3) / 40000
    assert abs(freq[0] - 0.5) < 0.02
    assert abs(freq[1] - 0.25) < 0.02


def test_json_roundtrip():
    g = Group((2, 3))
    nu = SymmetricDistribution.uniform(g)
    d = nu.to_json_dict()
    nu2 = distribution_from_json(d)
    assert nu2.group.moduli == (2, 3)
    assert list(nu2.probs) == list(nu.probs)
    assert group_from_json(d["group"]).moduli == (2, 3)
