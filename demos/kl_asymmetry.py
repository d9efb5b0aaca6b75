"""The information asymmetry between Gaussian and Cauchy models.

Replacing a Cauchy model by a Gaussian one destroys an infinite amount
of information: KL(Cauchy || Gaussian) diverges, because the Gaussian
assigns exponentially small probability to tail regions the Cauchy
visits polynomially often.  The defensive substitution in the other
direction is cheap: KL(Gaussian || Cauchy) is about a quarter of a nat.

The divergence detector takes the two log densities, widens the
integration domain by doubling and watches the shell contributions:
collapse means convergence, sustained growth (or a log density of q
that is -inf where p has mass) means the integral is infinite.
"""

from functools import partial

from stableinfer import cauchy_logpdf, kl_divergence_1d, normal_logpdf

normal = partial(normal_logpdf, 0, 1)
cauchy = partial(cauchy_logpdf, 0, 1)
forward = kl_divergence_1d(normal, cauchy, (-8.0, 8.0))
reverse = kl_divergence_1d(cauchy, normal, (-8.0, 8.0))

print("KL( N(0,1) || C(0,1) ) =", f"{forward.value:.6f}" if forward.is_finite else forward.kind)
print("KL( C(0,1) || N(0,1) ) =", "infinite" if reverse.is_infinite else reverse.value)
print()
print("Reading: a Cauchy prior in place of a Gaussian one costs ~0.26 nats")
print("and buys polynomial tails; the reverse substitution is an infinite")
print("loss, which is why thin-tailed surrogates for heavy-tailed beliefs")
print("are dangerous.")
