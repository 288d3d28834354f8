"""Buchberger's algorithm and division certificates.

A finite set G is a Groebner basis exactly when every S-polynomial S(g_j, g_k)
can be written as sum_i a_ijk g_i with lm(a_ijk g_i) <= lm(S(g_j, g_k)).  The
`certify_groebner` routine re-derives such coefficient tables by running the
division algorithm on every pair, so a basis is never taken on faith.
"""

from hkforge import Lex, PolyRing, buchberger, certify_groebner, s_polynomial

ring = PolyRing(5, ("s", "x", "y"), Lex())
s, x, y = ring.gens()
g = x * y * (x - y) * (x + y - s * y)

n = 9
gens = [x**n, y**n, g]
basis = buchberger(gens)
print(f"reduced Groebner basis of (x^{n}, y^{n}, g), lex(s > x > y):")
for element in basis:
    print("  ", element)
print("leading monomials:", sorted(basis.leading_monomials(), reverse=True))

# The S-polynomial of two monomials is always zero, so the only interesting
# pairs involve the quartic g.
print("\nS(x^9, g) =", s_polynomial(x**9, g))
print("S(x^9, y^9) =", s_polynomial(x**9, y**9))

cert = certify_groebner(list(basis), ring.order)
print("\ncertificate pass:", cert.ok)
print("pairs recorded:", len(cert.entries))
print("certificate re-checks:", cert.check())

# A set that is NOT a Groebner basis: the failing pair is returned with the
# nonzero remainder of its S-polynomial.
bad = certify_groebner([x**2, x * y + y**2], ring.order)
j, k, remainder = bad.failure
print(f"\n{{x^2, x*y + y^2}} fails at pair ({j}, {k}) with remainder {remainder}")


# A hand-written 14-entry basis of t*h + (1-t)*(s) in F_3[t, s, x, y] under
# lex, for h = (x^9, y^9, g, f) with f = sum_{j=2}^{8} (-1)^j x^(10-j) y^j,
# certifies as well: its t-free elements generate h ∩ (s).
m, n = 4, 9
aux = PolyRing(3, ("t", "s", "x", "y"), Lex())
t, s, x, y = aux.gens()
g = x * y * (x - y) * (x + y - s * y)
f = aux.zero()
for j in range(2, n):
    f = f + (-1) ** j * x ** (n + 1 - j) * y**j
c = t * x**3 * y - t * x * y**3 - s * x**2 * y**2 + s * x * y**3
d = m * t * x**2 * y ** (n - 1)
for j in range(1, n - 2):
    d = d + (-1) ** (j - 1) * j * s * x ** (n - 1 - j) * y ** (j + 2)
entries = [t * s - s, t * x**n, c, d, t * y**n, -(s * g), s * x**n, s * f]
entries += [s * x ** (n - j) * y ** (j + 2) for j in range(2, n - 2)]
entries += [s * y**n]
print("\nhand-built elimination basis:", len(entries), "entries;",
      "certifies:", certify_groebner(entries, aux.order).ok)
