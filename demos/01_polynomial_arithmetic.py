"""Exact polynomial arithmetic over F_p and the Frobenius map.

Everything in the engine is built from immutable polynomials with
coefficients reduced mod p and terms kept sorted under the ring's monomial
order.  This script walks the basic operations on the three-variable ring
used throughout: F_5[s, x, y] under lex with s > x > y.
"""

from hkforge import Lex, PolyRing, division, normal_form

ring = PolyRing(5, ("s", "x", "y"), Lex())
s, x, y = ring.gens()

print("ring:", ring)

# Under plain lex (not degree-lex!) a single s beats any power of x.
print("\nlex(s > x > y) ranks s above x^200:",
      ring.order.compare((1, 0, 0), (0, 200, 0)))

# The quartic that drives the worked example later on.
g = x * y * (x - y) * (x + y - s * y)
print("\ng = x*y*(x-y)*(x+y-s*y) expands to:", g)
coeff, mono = g.leading_term()
print("leading term:", coeff, "*", dict(zip(ring.variables, mono)))

# In characteristic p the p-th power map is linear on coefficients:
# (u + v)^p = u^p + v^p, so taking the p^e-th power just scales exponents.
f = x + y
print("\n(x + y)^5 the slow way:   ", f**5)
print("(x + y)^5 via Frobenius:  ", f.frobenius(1))

# Division with quotients is an exact certificate: f = sum(q_i g_i) + r.
target = s * g + x**7 + y
quotients, remainder = division(target, [g, x**2])
print("\ndividing s*g + x^7 + y by [g, x^2]:")
print("  quotient by g:  ", quotients[0])
print("  quotient by x^2:", quotients[1])
print("  remainder:      ", remainder)
recombined = quotients[0] * g + quotients[1] * x**2 + remainder
print("  recombines exactly:", recombined == target)

# Normal forms are idempotent and detect membership against a Groebner basis.
print("\nnormal_form(x^2*y, [x*y]) =", normal_form(x**2 * y, [x * y]))
