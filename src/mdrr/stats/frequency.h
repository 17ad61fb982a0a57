// Frequency machinery: univariate frequency tables over category codes and
// bivariate contingency tables with the chi-squared independence statistic
// and Cramér's V (Section 4, Expression (9)).

#ifndef MDRR_STATS_FREQUENCY_H_
#define MDRR_STATS_FREQUENCY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "mdrr/common/parallel.h"
#include "mdrr/common/status_or.h"

namespace mdrr::stats {

// The empirical distribution of `n` reports from their per-category
// counts: counts[v] / n entry by entry (all zeros when n == 0).
std::vector<double> CountProportions(const int64_t* counts,
                                     size_t num_categories, int64_t n);

// Counts and proportions of a single categorical variable.
class FrequencyTable {
 public:
  // From raw category codes; every code must be < num_categories.
  FrequencyTable(const std::vector<uint32_t>& codes, size_t num_categories);

  // From precomputed counts.
  explicit FrequencyTable(std::vector<int64_t> counts);

  size_t num_categories() const { return counts_.size(); }
  int64_t total() const { return total_; }
  const std::vector<int64_t>& counts() const { return counts_; }

  // Empirical distribution λ̂ (all zeros if total() == 0).
  std::vector<double> Proportions() const;

  // Adds another table's counts into this one (shard-wise counting:
  // count shards independently, then Absorb the partial tables).
  // Precondition: same num_categories().
  void Absorb(const FrequencyTable& other);

 private:
  std::vector<int64_t> counts_;
  int64_t total_;
};

// Sharded histogram: counts code_of(i) for i in [0, n) across worker
// threads, each worker accumulating into its own buffer, with the
// partial tables merged by Absorb. Integer sums commute, so the result
// is a pure function of (n, code_of) -- independent of thread count,
// chunk size, and which worker claimed which chunk. `code_of` must be
// safe to call concurrently and return values < num_categories.
template <typename CodeFn>
FrequencyTable ShardedHistogram(size_t n, size_t num_categories,
                                size_t chunk_size, size_t num_threads,
                                const CodeFn& code_of) {
  const size_t workers = ResolveWorkerCount(num_threads, n, chunk_size);
  std::vector<std::vector<int64_t>> worker_counts(
      workers, std::vector<int64_t>(num_categories, 0));
  ParallelChunks(n, chunk_size, num_threads,
                 [&](size_t worker, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   int64_t* buf = worker_counts[worker].data();
                   for (size_t i = begin; i < end; ++i) ++buf[code_of(i)];
                 });
  FrequencyTable total(std::move(worker_counts[0]));
  for (size_t w = 1; w < workers; ++w) {
    total.Absorb(FrequencyTable(std::move(worker_counts[w])));
  }
  return total;
}

// Joint counts of two categorical variables.
class ContingencyTable {
 public:
  // From paired code vectors (equal length).
  ContingencyTable(const std::vector<uint32_t>& codes_a, size_t cardinality_a,
                   const std::vector<uint32_t>& codes_b, size_t cardinality_b);

  // From a precomputed joint distribution (probabilities or counts) laid
  // out row-major: cell(a, b) = joint[a * cardinality_b + b], with a given
  // effective sample size n used for the chi-squared statistic.
  ContingencyTable(std::vector<double> joint_weights, size_t cardinality_a,
                   size_t cardinality_b, double n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double n() const { return n_; }
  double Cell(size_t a, size_t b) const;
  double RowMarginal(size_t a) const;
  double ColMarginal(size_t b) const;

  // Pearson's chi-squared independence statistic
  // χ² = Σ (o_ab - e_ab)² / e_ab with e_ab = row_a * col_b / n.
  // Cells with e_ab = 0 contribute 0.
  double ChiSquaredStatistic() const;

  // Cramér's V = sqrt( (χ²/n) / min(rows-1, cols-1) ) in [0, 1];
  // returns 0 if either variable has a single category.
  double CramersV() const;

 private:
  size_t rows_;
  size_t cols_;
  double n_;
  std::vector<double> cells_;  // Row-major weights (counts or mass * n).
};

}  // namespace mdrr::stats

#endif  // MDRR_STATS_FREQUENCY_H_
