"""Ideal-level calculus: bracket powers, intersection, colon, saturation.

Intersections are computed with one auxiliary variable t: the ideal
t*I + (1-t)*K in the extended ring contracts to I ∩ K once t is eliminated
by a block order.  Colons divide the intersection with a principal ideal
through by its generator, and saturation iterates the colon until the chain
stabilizes (detected by containment, since the chain only grows).
"""

from hkforge import (
    Ideal,
    Lex,
    PolyRing,
    bracket_power,
    colon_element,
    colon_ideal,
    dimension,
    ideal_equal,
    intersect,
    maximal_ideal,
    saturate,
)

ring = PolyRing(5, ("s", "x", "y"), Lex())
s, x, y = ring.gens()
g = x * y * (x - y) * (x + y - s * y)

n = 9
f = ring.zero()
for j in range(2, n):
    f = f + ((-1) ** j) * x ** (n + 1 - j) * y**j

e_ideal = Ideal(ring, [x**n, y**n, g])
h_ideal = e_ideal + Ideal(ring, [f])
m_ideal = maximal_ideal(ring)

# Bracket powers: generators raised to the q-th power, q = p^e.
print("(x, y)^[5] =", bracket_power(Ideal(ring, [x, y]), 1))

# The colon (e : f) is exactly the maximal ideal: f is a socle element
# modulo e, which is the heart of the worked example.
print("\n(e : f) == (s, x, y):", ideal_equal(colon_element(e_ideal, f), m_ideal))

# h is s-saturated, and saturating e at s (or at the whole maximal ideal)
# climbs exactly one step up to h.
sat_s, steps_s = saturate(e_ideal, s)
sat_m, steps_m = saturate(e_ideal, m_ideal)
print("(h : s) == h:", ideal_equal(colon_element(h_ideal, s), h_ideal))
print(f"e : s^inf == h (in {steps_s} step):", ideal_equal(sat_s, h_ideal))
print(f"e : m^inf == h (in {steps_m} step):", ideal_equal(sat_m, h_ideal))

# The intersection h ∩ (s) in closed form.
meet = intersect(h_ideal, Ideal(ring, [s]))
print("\nh ∩ (s) generators:")
for gen in meet.generators:
    print("  ", gen)

# Krull dimension read off initial ideals.
print("\ndim A/(g) =", dimension(Ideal(ring, [g])))
print("dim A/e   =", dimension(e_ideal))
print("dim A/(s,x,y) =", dimension(m_ideal))

# Quotient-ring work (modulo the hypersurface g) is done by adjoining g to
# every ideal; colons then agree with the quotient-ring colons.
two_vars = colon_ideal(Ideal(ring, [x**2, x * y]), maximal_ideal(ring))
print("\n((x^2, xy) : (s, x, y)) =", two_vars)
