#include "mdrr/core/dependence.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/stats/descriptive.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {

double DependenceBetweenColumns(const std::vector<uint32_t>& codes_a,
                                size_t cardinality_a, AttributeType type_a,
                                const std::vector<uint32_t>& codes_b,
                                size_t cardinality_b, AttributeType type_b) {
  MDRR_CHECK_EQ(codes_a.size(), codes_b.size());
  MDRR_CHECK(!codes_a.empty());
  if (type_a == AttributeType::kOrdinal && type_b == AttributeType::kOrdinal) {
    std::vector<double> x(codes_a.begin(), codes_a.end());
    std::vector<double> y(codes_b.begin(), codes_b.end());
    return std::fabs(stats::PearsonCorrelation(x, y));
  }
  stats::ContingencyTable table(codes_a, cardinality_a, codes_b,
                                cardinality_b);
  return table.CramersV();
}

double DependenceBetween(const Dataset& dataset, size_t i, size_t j) {
  const Attribute& a = dataset.attribute(i);
  const Attribute& b = dataset.attribute(j);
  return DependenceBetweenColumns(dataset.column(i), a.cardinality(), a.type,
                                  dataset.column(j), b.cardinality(), b.type);
}

linalg::Matrix DependenceMatrix(const Dataset& dataset) {
  const size_t m = dataset.num_attributes();
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    deps(i, i) = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      double d = DependenceBetween(dataset, i, j);
      deps(i, j) = d;
      deps(j, i) = d;
    }
  }
  return deps;
}

double NormalizedMutualInformationFromJoint(const std::vector<double>& joint,
                                            size_t cardinality_a,
                                            size_t cardinality_b) {
  MDRR_CHECK_EQ(joint.size(), cardinality_a * cardinality_b);
  double total = 0.0;
  for (double w : joint) total += std::max(0.0, w);
  if (total <= 0.0) return 0.0;

  std::vector<double> marginal_a(cardinality_a, 0.0);
  std::vector<double> marginal_b(cardinality_b, 0.0);
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      marginal_a[a] += w;
      marginal_b[b] += w;
    }
  }
  auto entropy = [](const std::vector<double>& dist) {
    double h = 0.0;
    for (double x : dist) {
      if (x > 0.0) h -= x * std::log(x);
    }
    return h;
  };
  double h_a = entropy(marginal_a);
  double h_b = entropy(marginal_b);
  if (h_a <= 0.0 || h_b <= 0.0) return 0.0;

  double mutual = 0.0;
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      if (w <= 0.0) continue;
      mutual += w * std::log(w / (marginal_a[a] * marginal_b[b]));
    }
  }
  double nmi = mutual / std::min(h_a, h_b);
  return std::min(1.0, std::max(0.0, nmi));
}

double NormalizedMutualInformation(const std::vector<uint32_t>& codes_a,
                                   size_t cardinality_a,
                                   const std::vector<uint32_t>& codes_b,
                                   size_t cardinality_b) {
  MDRR_CHECK_EQ(codes_a.size(), codes_b.size());
  MDRR_CHECK(!codes_a.empty());
  std::vector<double> joint(cardinality_a * cardinality_b, 0.0);
  for (size_t i = 0; i < codes_a.size(); ++i) {
    MDRR_CHECK_LT(codes_a[i], cardinality_a);
    MDRR_CHECK_LT(codes_b[i], cardinality_b);
    joint[codes_a[i] * cardinality_b + codes_b[i]] += 1.0;
  }
  return NormalizedMutualInformationFromJoint(joint, cardinality_a,
                                              cardinality_b);
}

linalg::Matrix DependenceMatrixWithMeasure(const Dataset& dataset,
                                           DependenceMeasure measure) {
  const size_t m = dataset.num_attributes();
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    deps(i, i) = 1.0;
    const Attribute& a = dataset.attribute(i);
    for (size_t j = i + 1; j < m; ++j) {
      const Attribute& b = dataset.attribute(j);
      double d = 0.0;
      switch (measure) {
        case DependenceMeasure::kPaperAuto:
          d = DependenceBetween(dataset, i, j);
          break;
        case DependenceMeasure::kCramersV: {
          stats::ContingencyTable table(dataset.column(i), a.cardinality(),
                                        dataset.column(j), b.cardinality());
          d = table.CramersV();
          break;
        }
        case DependenceMeasure::kAbsPearson: {
          std::vector<double> x(dataset.column(i).begin(),
                                dataset.column(i).end());
          std::vector<double> y(dataset.column(j).begin(),
                                dataset.column(j).end());
          d = std::fabs(stats::PearsonCorrelation(x, y));
          break;
        }
        case DependenceMeasure::kNormalizedMutualInformation:
          d = NormalizedMutualInformation(dataset.column(i), a.cardinality(),
                                          dataset.column(j),
                                          b.cardinality());
          break;
      }
      deps(i, j) = d;
      deps(j, i) = d;
    }
  }
  return deps;
}

double AbsPearsonFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, size_t cardinality_b) {
  MDRR_CHECK_EQ(joint.size(), cardinality_a * cardinality_b);
  double total = 0.0;
  for (double w : joint) total += std::max(0.0, w);
  if (total <= 0.0) return 0.0;

  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      mean_a += w * static_cast<double>(a);
      mean_b += w * static_cast<double>(b);
    }
  }
  double var_a = 0.0;
  double var_b = 0.0;
  double cov = 0.0;
  for (size_t a = 0; a < cardinality_a; ++a) {
    for (size_t b = 0; b < cardinality_b; ++b) {
      double w = std::max(0.0, joint[a * cardinality_b + b]) / total;
      double da = static_cast<double>(a) - mean_a;
      double db = static_cast<double>(b) - mean_b;
      var_a += w * da * da;
      var_b += w * db * db;
      cov += w * da * db;
    }
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return std::fabs(cov / std::sqrt(var_a * var_b));
}

namespace {

// Dependence statistic from a pair's exact joint counts. A pure function
// of (counts, measure, types), so any accumulation scheme that produces
// the same integer counts produces bitwise-identical dependences.
double DependenceFromJointCounts(const std::vector<int64_t>& counts,
                                 size_t cardinality_a, AttributeType type_a,
                                 size_t cardinality_b, AttributeType type_b,
                                 double n, DependenceMeasure measure) {
  std::vector<double> joint(counts.begin(), counts.end());
  switch (measure) {
    case DependenceMeasure::kPaperAuto:
      return DependenceFromJoint(joint, cardinality_a, type_a, cardinality_b,
                                 type_b, n);
    case DependenceMeasure::kCramersV: {
      stats::ContingencyTable table(std::move(joint), cardinality_a,
                                    cardinality_b, n);
      return table.CramersV();
    }
    case DependenceMeasure::kAbsPearson:
      return AbsPearsonFromJoint(joint, cardinality_a, cardinality_b);
    case DependenceMeasure::kNormalizedMutualInformation:
      return NormalizedMutualInformationFromJoint(joint, cardinality_a,
                                                  cardinality_b);
  }
  return 0.0;
}

// Joint counts of one pair accumulated serially over all records.
std::vector<int64_t> PairCountsSerial(const std::vector<uint32_t>& codes_a,
                                      const std::vector<uint32_t>& codes_b,
                                      size_t cardinality_a,
                                      size_t cardinality_b) {
  std::vector<int64_t> counts(cardinality_a * cardinality_b, 0);
  for (size_t i = 0; i < codes_a.size(); ++i) {
    ++counts[codes_a[i] * cardinality_b + codes_b[i]];
  }
  return counts;
}

}  // namespace

std::vector<std::pair<size_t, size_t>> UpperTrianglePairs(size_t m) {
  std::vector<std::pair<size_t, size_t>> pairs;
  if (m >= 2) pairs.reserve(m * (m - 1) / 2);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

Status ForEachPair(
    size_t num_pairs, size_t num_records,
    const DependenceShardingOptions& options,
    const std::function<Status(size_t pair, size_t worker,
                               bool shard_records)>& job) {
  const size_t chunk_size = std::max<size_t>(1, options.record_chunk_size);
  if (num_pairs < 2 * ResolveWorkerCount(options.num_threads, num_records,
                                         chunk_size)) {
    for (size_t p = 0; p < num_pairs; ++p) {
      MDRR_RETURN_IF_ERROR(job(p, /*worker=*/0, /*shard_records=*/true));
    }
    return Status::OK();
  }
  // An error cannot early-return across workers: statuses are collected
  // per pair and reduced in pair order after the join.
  std::vector<Status> failures(num_pairs, Status::OK());
  ParallelChunks(num_pairs, /*chunk_size=*/1, options.num_threads,
                 [&](size_t worker, size_t p, size_t /*begin*/,
                     size_t /*end*/) {
                   failures[p] = job(p, worker, /*shard_records=*/false);
                 });
  for (const Status& s : failures) MDRR_RETURN_IF_ERROR(s);
  return Status::OK();
}

std::vector<int64_t> PairCountsSharded(
    const std::vector<uint32_t>& codes_a, size_t cardinality_a,
    const std::vector<uint32_t>& codes_b, size_t cardinality_b,
    const DependenceShardingOptions& options) {
  return stats::ShardedHistogram(
             codes_a.size(), cardinality_a * cardinality_b,
             std::max<size_t>(1, options.record_chunk_size),
             options.num_threads,
             [&](size_t i) {
               return codes_a[i] * cardinality_b + codes_b[i];
             })
      .counts();
}

linalg::Matrix DependenceMatrixSharded(
    const Dataset& dataset, DependenceMeasure measure,
    const DependenceShardingOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  if (m < 2 || n == 0) return deps;

  // Both regimes produce the same integer counts, so the scheduler's
  // choice never changes the output.
  const std::vector<std::pair<size_t, size_t>> pairs = UpperTrianglePairs(m);
  Status done = ForEachPair(
      pairs.size(), n, options,
      [&](size_t p, size_t /*worker*/, bool shard_records) {
        auto [i, j] = pairs[p];
        const Attribute& a = dataset.attribute(i);
        const Attribute& b = dataset.attribute(j);
        std::vector<int64_t> counts =
            shard_records
                ? PairCountsSharded(dataset.column(i), a.cardinality(),
                                    dataset.column(j), b.cardinality(),
                                    options)
                : PairCountsSerial(dataset.column(i), dataset.column(j),
                                   a.cardinality(), b.cardinality());
        const double d = DependenceFromJointCounts(
            counts, a.cardinality(), a.type, b.cardinality(), b.type,
            static_cast<double>(n), measure);
        // Distinct pairs write distinct (i, j)/(j, i) cells.
        deps(i, j) = d;
        deps(j, i) = d;
        return Status::OK();
      });
  MDRR_CHECK(done.ok());
  return deps;
}

double DependenceFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, AttributeType type_a,
                           size_t cardinality_b, AttributeType type_b,
                           double n) {
  if (type_a == AttributeType::kOrdinal && type_b == AttributeType::kOrdinal) {
    return AbsPearsonFromJoint(joint, cardinality_a, cardinality_b);
  }
  // Clamp negative cells (estimated joints may leave the simplex).
  std::vector<double> clamped(joint.size());
  for (size_t i = 0; i < joint.size(); ++i) {
    clamped[i] = std::max(0.0, joint[i]);
  }
  stats::ContingencyTable table(std::move(clamped), cardinality_a,
                                cardinality_b, n);
  return table.CramersV();
}

}  // namespace mdrr
