"""How tight are the closed-form bounds against exact quadrature TVs?

Two comparisons: the single-jump reduction bound 2 lambda^2 against the
true TV between the compound-Poisson and single-jump increment laws, and
the wrap bound of the fractional-part filter against the true wrapped
tail mass.
"""

import math

import numpy as np

import lecamjd as lj

law = lj.DiracJump(1.0)

print("single-jump reduction, sigma_i = 0.05:")
print("lambda_i     TV(exact, one-jump)   2 lambda^2   ratio")
# one grid of five intervals, one lambda_i each: one batch of five TVs
lams = [0.4, 0.2, 0.1, 0.05, 0.02]
summ = lj.IncrementSummaries(m=[0.0] * 5, sigma2=[0.0025] * 5, lam=lams)
tvs = lj.tv_quadrature(lj.increment_density_exact(summ, law),
                       lj.bernoulli_density(summ, law))
for lam, tv in zip(lams, tvs):
    bound = 2.0 * lam * lam
    print(f"{lam:8.2f}     {tv:19.3e}   {bound:10.3e}   {tv / bound:.3f}")
print("the ratio tends to 1/4: the bound wastes a factor 4 for rare jumps\n")

print("fractional-part filter, m_i = 0.2:")
print("sigma_i   wrapped tail mass   filter bound   ratio")
# one Gaussian per sigma_i, as rows of one table: one batch of four TVs
sigs = np.array([0.2, 0.15, 0.1, 0.08])
summ = lj.IncrementSummaries(m=[0.2] * 4, sigma2=sigs * sigs, lam=[0.1] * 4)
gauss = lj.gaussian_density(summ.m, summ.sigma2)
wraps = lj.tv_quadrature(lj.fold_density_to_lattice_cell(gauss), gauss)
terms = lj.discrete_kernel_aggregate_bound(summ).per_increment
for sig, wrap, term in zip(sigs, wraps, terms):
    # Phi(-a / sig) = erfc(a / (sig sqrt 2)) / 2 for the two wrap tails
    closed = 0.5 * (math.erfc(0.3 / (sig * math.sqrt(2.0)))
                    + math.erfc(0.7 / (sig * math.sqrt(2.0))))
    assert np.isclose(wrap, closed, rtol=1e-9)
    print(f"{sig:7.2f}   {wrap:17.3e}   {term:12.3e}   {wrap / term:.2e}")
print("the filter bound is loose by design; it only needs |m_i| <= 1/3")
