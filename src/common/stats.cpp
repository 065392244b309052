#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace ear::common {

void RunningStats::add(double x) { add_weighted(x, 1.0); }

void RunningStats::add_weighted(double x, double weight) {
  EAR_CHECK_MSG(weight > 0.0, "weights must be positive");
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  w_ += weight;
  const double delta = x - mean_;
  mean_ += delta * (weight / w_);
  m2_ += weight * delta * (x - mean_);
}

double RunningStats::variance() const {
  return w_ > 0.0 ? m2_ / w_ : 0.0;  // population variance
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double w = w_ + other.w_;
  const double delta = other.mean_ - mean_;
  const double mean = mean_ + delta * (other.w_ / w);
  m2_ += other.m2_ + delta * delta * (w_ * other.w_ / w);
  mean_ = mean;
  w_ = w;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double relative_change(double reference, double value) {
  // A zero reference has no meaningful relative change; returning 0.0
  // here used to report "no change" for *any* value. NaN is a signalled
  // sentinel the formatting layer renders as "n/a".
  if (reference == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return (value - reference) / reference;
}

double percent_change(double reference, double value) {
  return 100.0 * relative_change(reference, value);
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

std::vector<double> least_squares(
    const std::vector<std::vector<double>>& rows, std::span<const double> y) {
  EAR_CHECK(rows.size() == y.size());
  EAR_CHECK(!rows.empty());
  const std::size_t k = rows.front().size();
  EAR_CHECK_MSG(rows.size() >= k, "underdetermined least-squares system");

  // Normal equations: (X^T X) beta = X^T y, as a beta = b.
  std::vector<std::vector<double>> a(k, std::vector<double>(k, 0.0));
  std::vector<double> b(k, 0.0);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const auto& row = rows[s];
    EAR_CHECK(row.size() == k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) a[i][j] += row[i] * row[j];
      b[i] += row[i] * y[s];
    }
  }

  // Gaussian elimination with partial pivoting on [a | b].
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      throw ConfigError("least_squares: singular normal equations");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < k; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }

  std::vector<double> beta(k);
  for (std::size_t i = 0; i < k; ++i) beta[i] = b[i] / a[i][i];
  return beta;
}

}  // namespace ear::common
