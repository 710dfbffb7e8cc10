#include "support/stats.hpp"

#include <cmath>

#include "support/check.hpp"

namespace dws::support {

namespace {

// Regularized lower incomplete gamma P(a, x) by its power series; converges
// fast for x < a + 1 (Numerical Recipes "gser").
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-14) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction;
// converges fast for x >= a + 1 (Numerical Recipes "gcf").
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-14) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double chi_square_sf(double x, double dof) {
  DWS_CHECK(dof > 0.0);
  if (x <= 0.0) return 1.0;
  const double a = dof / 2.0;
  const double xs = x / 2.0;
  if (xs < a + 1.0) return 1.0 - gamma_p_series(a, xs);
  return gamma_q_cf(a, xs);
}

}  // namespace dws::support
