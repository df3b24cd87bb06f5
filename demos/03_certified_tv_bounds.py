"""Certified total variation bounds from observed divergence values.

Every f-divergence dominates phi(TV/2) with phi(t) = f(1+t) + f(1-t), a
nondecreasing function on [0, 1].  Reading the inequality backwards, an
observed divergence value caps the total variation: ``invert`` finds the
largest TV compatible with the observation, from a closed-form inverse
confirmed by one evaluation of phi, and wraps it in a certificate.  For the reverse-KL generator the inversion has a closed
form (the Bretagnolle-Huber bound); for the Hellinger generator a
simpler piecewise form is also available, at the price of some slack.
"""

import json
import math

import numpy as np

from divbound import (
    ProbabilityMeasure,
    bretagnolle_huber,
    bretagnolle_huber_certificate,
    builtin,
    d_f,
    hellinger_bound,
    invert,
    kl,
    lower_bound,
    phi,
    tv_distance,
)

kl_gen = builtin("KL")
sh_gen = builtin("SH")

# phi for a few generators; for TV it is the identity 2t, for PE 2t^2.
for t in (0.0, 0.25, 0.5, 1.0):
    print(f"phi_KL({t}) = {phi(kl_gen, t):.6f}   phi_PE({t}) = {phi(builtin('PE'), t):.6f}")

# Forward direction: a TV value forces a minimum divergence.
mu = ProbabilityMeasure(("a1", "a2"), [0.5, 0.5])
nu = ProbabilityMeasure(("a1", "a2"), [0.25, 0.75])
t = tv_distance(mu, nu)
print("tv:", t, " floor:", lower_bound(kl_gen, t), " actual KL:", kl(mu, nu).value)

# Backward direction: an observed divergence certifies a TV cap.
observed = kl(mu, nu).value
cert = invert(kl_gen, observed)
print("certificate:", json.dumps(cert.to_json_dict(precision=9)))
print("true tv", t, "<= certified", cert.tv_upper_bound)

# The reverse-KL inversion has a closed form; bretagnolle_huber takes it from invert's SH row.
for d in (0.1, 0.5, 2.0):
    tight, loose = bretagnolle_huber(d)
    numeric = invert(sh_gen, d).tv_upper_bound
    print(f"d={d}: numeric {numeric:.9f}  closed form {tight:.9f}  weak form {loose:.9f}")
print("closed-form certificate:", json.dumps(bretagnolle_huber_certificate(0.1).to_json_dict(9)))

# Infinite divergence certifies nothing beyond the trivial cap of 2.
print("invert at inf:", invert(kl_gen, math.inf).tv_upper_bound)

# The piecewise Hellinger estimate is valid but looser than inversion.
he_gen = builtin("HE")
for d in np.linspace(0.0, 1.2, 7):
    print(f"he={d:.2f}: inversion {invert(he_gen, d).tv_upper_bound:.6f}"
          f"  piecewise {hellinger_bound(d):.6f}")

# Soundness in action: certificates never undershoot the actual distance.
rng = np.random.Generator(np.random.Philox(key=7))
for _ in range(5):
    w = rng.uniform(0.05, 1.0, size=(2, 4))
    a = ProbabilityMeasure(("a1", "a2", "a3", "a4"), w[0] / w[0].sum())
    b = ProbabilityMeasure(("a1", "a2", "a3", "a4"), w[1] / w[1].sum())
    cert = invert(he_gen, d_f(he_gen, a, b).value)
    print(f"tv {tv_distance(a, b):.6f} <= certified {cert.tv_upper_bound:.6f}")
