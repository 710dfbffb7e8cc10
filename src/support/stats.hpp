#pragma once

/// Statistical tests used by the audit layer's distribution screen.
namespace dws::support {

/// Survival function of the chi-square distribution: P(X >= x) for X with
/// `dof` degrees of freedom — i.e. the p-value of a chi-square
/// goodness-of-fit statistic. Computed as the regularized upper incomplete
/// gamma function Q(dof/2, x/2) (series for small x, continued fraction
/// otherwise). Accurate to ~1e-10, plenty for hypothesis screening.
double chi_square_sf(double x, double dof);

}  // namespace dws::support
