#include "mdrr/eval/oracle_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "mdrr/core/estimator.h"
#include "mdrr/rng/rng.h"

namespace mdrr::eval {

namespace {

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return std::string(buffer);
}

}  // namespace

std::string OracleComparisonReport::ToString(const Dataset& dataset) const {
  std::string out = "oracle comparison at epsilon " + FormatDouble(epsilon) +
                    " (" + std::to_string(dataset.num_rows()) + " records)\n";
  for (const OracleBackendReport& row : backends) {
    out += "  ";
    out += mdrr::ToString(row.backend);
    out += ": mean_tv " + FormatDouble(row.mean_tv);
    for (size_t j = 0; j < row.marginal_tv.size(); ++j) {
      out += " | " + dataset.attribute(j).name +
             " tv " + FormatDouble(row.marginal_tv[j]) +
             " max_err " + FormatDouble(row.max_abs_error[j]) +
             " var " + FormatDouble(row.mean_theoretical_variance[j]);
    }
    out += '\n';
  }
  return out;
}

StatusOr<OracleComparisonReport> BuildOracleComparisonReport(
    const Dataset& dataset, const OracleComparisonOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        "oracle comparison needs a nonempty dataset");
  }
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "oracle comparison needs a finite epsilon > 0");
  }
  if (options.backends.empty()) {
    return Status::InvalidArgument("no backends to compare");
  }

  RngStreamFamily family(options.seed);
  OracleComparisonReport report;
  report.epsilon = options.epsilon;
  report.backends.reserve(options.backends.size());

  for (size_t b = 0; b < options.backends.size(); ++b) {
    OracleBackendReport row;
    row.backend = options.backends[b];
    row.marginal_tv.reserve(m);
    row.max_abs_error.reserve(m);
    row.mean_theoretical_variance.reserve(m);

    for (size_t j = 0; j < m; ++j) {
      const std::vector<uint32_t>& column = dataset.column(j);
      const size_t r = dataset.attribute(j).cardinality();
      MDRR_ASSIGN_OR_RETURN(
          std::unique_ptr<FrequencyOracle> oracle,
          MakeFrequencyOracle(row.backend, r, options.epsilon));

      Rng rng = family.Stream(b * m + j);
      MDRR_ASSIGN_OR_RETURN(
          std::vector<double> raw,
          oracle->EstimateFromLambda(
              AccumulateColumn(*oracle, column, rng).lambda));
      std::vector<double> estimated = ProjectToSimplex(raw);

      const std::vector<double> truth = EmpiricalDistribution(column, r);
      double tv = 0.0;
      double max_err = 0.0;
      double variance = 0.0;
      for (size_t v = 0; v < r; ++v) {
        const double err = std::abs(estimated[v] - truth[v]);
        tv += err;
        max_err = std::max(max_err, err);
        variance += oracle->TheoreticalVariance(truth[v],
                                                static_cast<int64_t>(n));
      }
      row.marginal_tv.push_back(0.5 * tv);
      row.max_abs_error.push_back(max_err);
      row.mean_theoretical_variance.push_back(variance /
                                              static_cast<double>(r));
    }

    for (double tv : row.marginal_tv) row.mean_tv += tv;
    row.mean_tv /= static_cast<double>(m);
    report.backends.push_back(std::move(row));
  }
  return report;
}

}  // namespace mdrr::eval
