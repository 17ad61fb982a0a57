#include "mdrr/core/perturber.h"

#include <utility>

#include "mdrr/core/frequency_oracle.h"

namespace mdrr {

ColumnPerturber SequentialPerturber(Rng& rng) {
  return [&rng](const RrMatrix& matrix, const std::vector<uint32_t>& codes,
                size_t /*column_index*/) {
    // Fused perturb+count through the frequency-oracle seam: the direct-
    // encoding oracle delegates draw-for-draw to RandomizeRangeInto, so
    // the column is traversed once. λ̂ is counts * (1/n) -- the exact
    // arithmetic EmpiricalDistribution performs (reciprocal multiply, not
    // per-entry division), so estimates are bit-identical to the unfused
    // path.
    OracleColumnResult column =
        AccumulateColumn(DirectEncodingOracle(matrix), codes, rng);
    if (!codes.empty()) {
      const double inv_n = 1.0 / static_cast<double>(codes.size());
      for (size_t v = 0; v < column.counts.size(); ++v) {
        column.lambda[v] = static_cast<double>(column.counts[v]) * inv_n;
      }
    }
    return PerturbedColumn{std::move(column.codes), std::move(column.lambda)};
  };
}

}  // namespace mdrr
