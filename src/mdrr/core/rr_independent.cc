#include "mdrr/core/rr_independent.h"

#include <utility>

#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_matrix.h"

namespace mdrr {

RrMatrix MakeIndependentMatrix(size_t r, const RrIndependentOptions& options) {
  switch (options.design) {
    case IndependentDesign::kGeometricOrdinal:
      // A single-category attribute has nothing to protect; the ordinal
      // design needs r >= 2, so publish the only value (epsilon 0).
      if (r < 2) return RrMatrix::KeepUniform(r, 1.0);
      return RrMatrix::GeometricOrdinal(r, options.geometric_epsilon);
    case IndependentDesign::kKeepUniform:
      break;
  }
  return RrMatrix::KeepUniform(r, options.keep_probability);
}

StatusOr<RrIndependentResult> RunRrIndependent(
    const Dataset& dataset, const RrIndependentOptions& options, Rng& rng) {
  return RunRrIndependentWith(
      dataset, options,
      [&rng](const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
             size_t /*column_index*/) {
        return AccumulateColumn(oracle, codes, rng);
      });
}

StatusOr<RrIndependentResult> RunRrIndependentWith(
    const Dataset& dataset, const RrIndependentOptions& options,
    const ColumnRunner& run_column, const OracleFactory& make_oracle) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot run RR-Independent on empty data");
  }
  const size_t m = dataset.num_attributes();
  RrIndependentResult result;
  result.lambda.resize(m);
  result.raw_estimated.resize(m);
  result.estimated.resize(m);
  result.epsilons.resize(m);
  std::vector<std::vector<uint32_t>> columns;
  columns.reserve(m);

  for (size_t j = 0; j < m; ++j) {
    const size_t r = dataset.attribute(j).cardinality();
    std::unique_ptr<FrequencyOracle> oracle;
    if (make_oracle) {
      MDRR_ASSIGN_OR_RETURN(oracle, make_oracle(r));
    } else {
      oracle = std::make_unique<DirectEncodingOracle>(
          MakeIndependentMatrix(r, options));
    }
    OracleColumnResult column = run_column(*oracle, dataset.column(j), j);
    if (oracle->produces_microdata()) {
      columns.push_back(std::move(column.codes));
    }
    result.lambda[j] = std::move(column.lambda);
    MDRR_ASSIGN_OR_RETURN(result.raw_estimated[j],
                          oracle->EstimateFromLambda(result.lambda[j]));
    result.estimated[j] = ProjectToSimplex(result.raw_estimated[j]);
    result.epsilons[j] = oracle->epsilon();
    result.total_epsilon += result.epsilons[j];
  }
  if (columns.size() == m) {
    result.randomized = Dataset(dataset.schema(), std::move(columns));
  }
  return result;
}

IndependentMarginalsEstimate MakeIndependentEstimate(
    const RrIndependentResult& result) {
  return IndependentMarginalsEstimate(
      result.estimated, static_cast<double>(result.randomized.num_rows()));
}

}  // namespace mdrr
