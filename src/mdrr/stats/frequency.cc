#include "mdrr/stats/frequency.h"

#include <algorithm>
#include <cmath>

#include "mdrr/common/check.h"

namespace mdrr::stats {

FrequencyTable::FrequencyTable(const std::vector<uint32_t>& codes,
                               size_t num_categories)
    : counts_(num_categories, 0), total_(0) {
  for (uint32_t code : codes) {
    MDRR_CHECK_LT(code, num_categories);
    ++counts_[code];
    ++total_;
  }
}

FrequencyTable::FrequencyTable(std::vector<int64_t> counts)
    : counts_(std::move(counts)), total_(0) {
  for (int64_t c : counts_) {
    MDRR_CHECK_GE(c, 0);
    total_ += c;
  }
}

void FrequencyTable::Absorb(const FrequencyTable& other) {
  MDRR_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::vector<double> CountProportions(const int64_t* counts,
                                     size_t num_categories, int64_t n) {
  std::vector<double> proportions(num_categories, 0.0);
  if (n == 0) return proportions;
  for (size_t v = 0; v < num_categories; ++v) {
    proportions[v] = static_cast<double>(counts[v]) / static_cast<double>(n);
  }
  return proportions;
}

std::vector<double> FrequencyTable::Proportions() const {
  return CountProportions(counts_.data(), counts_.size(), total_);
}

ContingencyTable::ContingencyTable(const std::vector<uint32_t>& codes_a,
                                   size_t cardinality_a,
                                   const std::vector<uint32_t>& codes_b,
                                   size_t cardinality_b)
    : rows_(cardinality_a),
      cols_(cardinality_b),
      n_(static_cast<double>(codes_a.size())),
      cells_(cardinality_a * cardinality_b, 0.0) {
  MDRR_CHECK_EQ(codes_a.size(), codes_b.size());
  for (size_t i = 0; i < codes_a.size(); ++i) {
    MDRR_CHECK_LT(codes_a[i], rows_);
    MDRR_CHECK_LT(codes_b[i], cols_);
    cells_[codes_a[i] * cols_ + codes_b[i]] += 1.0;
  }
}

ContingencyTable::ContingencyTable(std::vector<double> joint_weights,
                                   size_t cardinality_a, size_t cardinality_b,
                                   double n)
    : rows_(cardinality_a),
      cols_(cardinality_b),
      n_(n),
      cells_(std::move(joint_weights)) {
  MDRR_CHECK_EQ(cells_.size(), rows_ * cols_);
  MDRR_CHECK_GT(n_, 0.0);
  // Normalize weights so that cell mass sums to n (accepts either
  // probabilities or counts as input).
  double total = 0.0;
  for (double w : cells_) {
    MDRR_CHECK_GE(w, 0.0);
    total += w;
  }
  if (total > 0.0) {
    double scale = n_ / total;
    for (double& w : cells_) w *= scale;
  }
}

double ContingencyTable::Cell(size_t a, size_t b) const {
  MDRR_CHECK_LT(a, rows_);
  MDRR_CHECK_LT(b, cols_);
  return cells_[a * cols_ + b];
}

double ContingencyTable::RowMarginal(size_t a) const {
  MDRR_CHECK_LT(a, rows_);
  double sum = 0.0;
  for (size_t b = 0; b < cols_; ++b) sum += cells_[a * cols_ + b];
  return sum;
}

double ContingencyTable::ColMarginal(size_t b) const {
  MDRR_CHECK_LT(b, cols_);
  double sum = 0.0;
  for (size_t a = 0; a < rows_; ++a) sum += cells_[a * cols_ + b];
  return sum;
}

double ContingencyTable::ChiSquaredStatistic() const {
  std::vector<double> row_marginals(rows_);
  std::vector<double> col_marginals(cols_);
  for (size_t a = 0; a < rows_; ++a) row_marginals[a] = RowMarginal(a);
  for (size_t b = 0; b < cols_; ++b) col_marginals[b] = ColMarginal(b);

  double chi2 = 0.0;
  for (size_t a = 0; a < rows_; ++a) {
    for (size_t b = 0; b < cols_; ++b) {
      double expected = row_marginals[a] * col_marginals[b] / n_;
      if (expected <= 0.0) continue;
      double observed = cells_[a * cols_ + b];
      double diff = observed - expected;
      chi2 += diff * diff / expected;
    }
  }
  return chi2;
}

double ContingencyTable::CramersV() const {
  size_t min_dim = std::min(rows_, cols_);
  if (min_dim < 2) return 0.0;
  double chi2 = ChiSquaredStatistic();
  double v2 = (chi2 / n_) / static_cast<double>(min_dim - 1);
  // Guard against floating-point drift slightly above 1.
  return std::sqrt(std::min(1.0, std::max(0.0, v2)));
}

}  // namespace mdrr::stats
