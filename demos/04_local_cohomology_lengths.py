"""Lengths of finite quotients and 0th local cohomology at (s, x, y).

Three independent measurement routes are shown side by side:

* standard-monomial counting (finite colength only): count the monomials
  outside the initial ideal, a finite box once every variable appears to a
  pure power;
* the subquotient route for (U + J)/J: the span of U's normal forms mod J,
  closed under the variables by sparse linear algebra;
* a Groebner-free brute-force oracle: Gaussian elimination on raw generator
  multiples, degree by degree.
"""

from hkforge import (
    Ideal,
    PolyRing,
    finite_colength_length,
    gamma_length,
    gamma_submodule,
    oracle_quotient_dimension,
    subquotient_length,
    unit_ideal,
)

ring = PolyRing(5, ("x", "y"))
x, y = ring.gens()

box = Ideal(ring, [x**2, y**3])
print("len(R/(x^2, y^3)) =", finite_colength_length(box).expect(), "(2x3 box)")
print("same through the oracle at degree 10:", oracle_quotient_dimension(box, 10))

tall = Ideal(ring, [x**2, x * y])
print("\n(x^2, xy) has infinite colength:", not finite_colength_length(tall).finite)

# Gamma_m(R/(x^2, xy)) is (x)/(x^2, xy), a single copy of the residue field.
h = gamma_submodule(tall, unit_ideal(ring))
print("torsion submodule H with Gamma = H/(x^2, xy):", h)
print("its length:", subquotient_length(h, tall, method="rank").expect())
print("gamma_length(J, R) =", gamma_length(tall, unit_ideal(ring)).expect())

# Additivity on a finite-colength pair: len(U/J) + len(R/U) = len(R/J).
j_ideal = Ideal(ring, [x**3, y**3])
u_ideal = Ideal(ring, [x**3, x * y**2, y**3])
len_uj = subquotient_length(u_ideal, j_ideal, method="rank").expect()
len_u = finite_colength_length(u_ideal).expect()
len_j = finite_colength_length(j_ideal).expect()
print(f"\nadditivity: {len_uj} + {len_u} == {len_j}:", len_uj + len_u == len_j)

# The worked example at (p, m) = (5, 4): the torsion of A/e is one-dimensional.
from hkforge.verify import build_construction

data = build_construction(5, 4)
print("\nworked example: len Gamma_m(A/e) =",
      gamma_length(data.e, unit_ideal(data.ring)).expect())
