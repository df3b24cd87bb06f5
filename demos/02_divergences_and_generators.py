"""The built-in generators and the divergences they induce.

Each f-divergence comes from a convex function f with f(1) = 0 applied
to the density dmu/dnu and integrated against nu.  The five built-ins
cover the classical cases; the dual transform x*f(1/x) swaps the
arguments of the induced divergence.
"""

from divbound import (
    BUILTIN_NAMES,
    ProbabilityMeasure,
    builtin,
    check_separation,
    d_f,
    default_grid,
    density_ratio,
    dual,
    kl,
    sh,
    tv,
    tv_distance,
)

mu = ProbabilityMeasure(("a1", "a2", "a3"), [0.5, 0.3, 0.2])
nu = ProbabilityMeasure(("a1", "a2", "a3"), [0.2, 0.5, 0.3])

print("density dmu/dnu:", density_ratio(mu, nu))
for name in BUILTIN_NAMES:
    print(f"D_{name}(mu, nu) =", d_f(builtin(name), mu, nu).value)

# The TV generator reproduces the metric from the measure layer.
print("tv generator:", tv(mu, nu).value, " == distance:", tv_distance(mu, nu))

# Divergences are asymmetric; the dual generator swaps arguments.
print("kl(mu, nu):", kl(mu, nu).value)
print("kl(nu, mu):", kl(nu, mu).value)
print("sh(mu, nu):", sh(mu, nu).value, "   (same as kl(nu, mu))")
f_star = dual(builtin("KL"))
print("dual(KL) applied to (mu, nu):", d_f(f_star, mu, nu).value)

# dual swaps the two stored limits, the value at 0 and the slope at
# infinity lim f(y)/y; nothing is evaluated numerically.
for name in BUILTIN_NAMES:
    f = builtin(name)
    fd = dual(f)
    print(f"{name}: f(0) = {f.value_at_zero}, slope = {f.slope_at_inf};"
          f"  {fd.name}: f(0) = {fd.value_at_zero}, slope = {fd.slope_at_inf}")

# The reverse KL blows up when mu misses mass that nu carries, and so
# does dual(KL), whose value at 0 is the infinite slope of KL.
spiky = ProbabilityMeasure(("a1", "a2", "a3"), [0.0, 0.5, 0.5])
print("sh with a vanishing mu atom:", sh(spiky, nu).value)
print("dual(KL) with a vanishing mu atom:", d_f(f_star, spiky, nu).value)

# A separation coefficient certifies that zero divergence forces equal
# measures: f(x) - a*(x - 1) must be positive away from 1.
grid = default_grid()
for name in BUILTIN_NAMES:
    f = builtin(name)
    a = f.separation_coefficient
    status = "none stored" if a is None else f"a={a}, separates={check_separation(f, a, grid)}"
    print(f"{name}: {status}")
