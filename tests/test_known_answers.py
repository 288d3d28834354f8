"""Hilbert-Kunz functions and relative sequences with known closed forms.

The other gates compare the engine with itself; these compare it with the
literature, on singular rings.  For q = p^e:
- the Fermat cubic x^3 + y^3 + z^3, p = 5, 7, 11, 13: hk(q) = (9q^2 - 5)/4
  (Buchweitz & Chen, J. Algebra 1997; Monsky, Math. Ann. 1983); at p = 3 it
  is (x + y + z)^3 and hk(q) = 3q^2 from q = 3; at p = 2, 9q^2/4 from q = 4;
- the A1 quadric xy - z^2, p odd: hk(q) = (3q^2 - 1)/2 (Watanabe & Yoshida,
  J. Algebra 2000); at p = 2, 3q^2/2 from q = 2.
On these rings (x, y) is a parameter ideal of e_HK = 3 and 2.  In the Fermat
cubic z^2 lies in the tight closure of (x, y), and in its Frobenius closure
when p = 2 mod 3, so rjj of (x, y) <= (x, y, z^2) is o(q^2); rjj of
(x, y) <= (x, y, z) is 3q^2 - hk(q) = (3q^2 + 5)/4.  The A1 quadric is
F-regular, and rjj of (x, y) <= (x, y, z) is 2q^2 - hk(q) = (q^2 + 1)/2.
Every pair here is m-primary, so rjj_e = hk(J)_e - hk(I)_e as well, and so
are sjj_e and the f-difference, while vjj_e = hk(J + m*I)_e - hk(I)_e.
"""

import pytest

from hkforge import (
    Ideal,
    PolyRing,
    f_difference_sequence,
    hk_function,
    maximal_ideal,
    rjj_sequence,
    sjj_sequence,
    vjj_sequence,
)


# hk(q) of the maximal ideal, and e_HK of (x, y), on each hypersurface
HK = {"fermat": lambda q: (9 * q**2 - 5) // 4, "a1": lambda q: (3 * q**2 - 1) // 2}
E_HK = {"fermat": 3, "a1": 2}


def _ring(p, kind):
    ring = PolyRing(p, ("x", "y", "z"))
    x, y, z = ring.gens()
    g = x**3 + y**3 + z**3 if kind == "fermat" else x * y - z**2
    return ring, g


@pytest.mark.parametrize(
    "kind,p,values",
    [
        ("fermat", 5, [1, 55, 1405]),
        ("fermat", 7, [1, 109, 5401]),
        ("a1", 5, [1, 37, 937]),
        ("fermat", 11, [1, 271, 32941]),
        ("fermat", 13, [1, 379, 64261]),
        ("a1", 3, [1, 13, 121, 1093]),
        ("a1", 7, [1, 73, 3601]),
        ("a1", 11, [1, 181, 21961]),
        ("a1", 13, [1, 253, 42841]),
    ],
)
def test_hk_of_the_maximal_ideal_has_its_closed_form(kind, p, values):
    ring, g = _ring(p, kind)
    raws = hk_function(maximal_ideal(ring), len(values) - 1, hypersurface=g).raw_values()
    assert raws == values == [HK[kind](p**e) for e in range(len(values))]


@pytest.mark.parametrize(
    "kind,p,values,closed,first",
    [
        ("fermat", 3, [1, 27, 243, 2187], lambda q: 3 * q**2, 1),
        ("a1", 2, [1, 6, 24, 96], lambda q: 3 * q**2 // 2, 1),
        ("fermat", 2, [1, 8, 36, 144], lambda q: 9 * q**2 // 4, 2),
    ],
    ids=["fermat-3", "a1-2", "fermat-2"],
)
def test_hk_of_the_maximal_ideal_in_small_characteristic(kind, p, values, closed, first):
    """The closed form holds from level `first` on.  At p = 3 the Fermat cubic
    is (x + y + z)^3, and from q = 3 on m^[q] + (g) = (x^q, y^q, (x + y + z)^3),
    so hk(q) = 3q^2.  At p = 2, 3q^2/2 holds from q = 2 and 9q^2/4 from q = 4:
    at q = 2 the Fermat cubic lies in m^[2], so hk(2) = len R/m^[2] = 8."""
    ring, g = _ring(p, kind)
    raws = hk_function(maximal_ideal(ring), len(values) - 1, hypersurface=g).raw_values()
    assert raws == values
    assert raws[first:] == [closed(p**e) for e in range(first, len(values))]


@pytest.mark.parametrize(
    "kind,p,top,values",
    [
        ("fermat", 5, 2, [1, 0, 0, 0]),
        ("fermat", 7, 2, [1, 1, 1]),
        ("fermat", 5, 1, [2, 20, 470, 11720]),
        ("a1", 5, 1, [1, 13, 313]),
    ],
)
def test_rjj_of_a_parameter_ideal_has_its_known_value(kind, p, top, values):
    """rjj of (x, y) <= (x, y, z^top), pinned, equal to the difference of the
    two Hilbert-Kunz functions, and for top = 1 to e_HK(x, y) q^2 - hk(q)."""
    ring, g = _ring(p, kind)
    x, y, z = ring.gens()
    j_ideal, i_ideal = Ideal(ring, [x, y]), Ideal(ring, [x, y, z**top])
    e_max = len(values) - 1
    raws = rjj_sequence(j_ideal, i_ideal, e_max, hypersurface=g).raw_values()
    assert raws == values
    hk_j = hk_function(j_ideal, e_max, hypersurface=g).raw_values()
    hk_i = hk_function(i_ideal, e_max, hypersurface=g).raw_values()
    assert raws == [a - b for a, b in zip(hk_j, hk_i)]
    if top == 1:
        assert raws == [E_HK[kind] * p ** (2 * e) - HK[kind](p**e) for e in range(e_max + 1)]


@pytest.mark.parametrize(
    "kind,p,vjj",
    [("fermat", 5, [1, 20, 470]), ("fermat", 7, [1, 37, 1801]), ("a1", 5, [1, 13, 313])],
)
def test_sequences_of_a_parameter_ideal_are_hk_differences(kind, p, vjj):
    """(x, y) <= (x, y, z), levels 0..2: J is m-primary, so Gamma_m(I/J) is
    all of I/J and sjj, the f-difference and rjj all equal hk(J) - hk(I),
    while vjj, pinned, is hk(J + m*I) - hk(I)."""
    ring, g = _ring(p, kind)
    x, y, z = ring.gens()
    j_ideal, i_ideal = Ideal(ring, [x, y]), Ideal(ring, [x, y, z])

    def hk(ideal):
        return hk_function(ideal, 2, hypersurface=g).raw_values()

    def run(sequence):
        return sequence(j_ideal, i_ideal, 2, hypersurface=g).raw_values()

    hk_i = hk(i_ideal)
    rjj = [a - b for a, b in zip(hk(j_ideal), hk_i)]
    assert run(sjj_sequence) == run(f_difference_sequence) == run(rjj_sequence) == rjj
    k_ideal = j_ideal + maximal_ideal(ring) * i_ideal
    assert run(vjj_sequence) == vjj == [a - b for a, b in zip(hk(k_ideal), hk_i)]
