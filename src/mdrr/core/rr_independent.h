// Protocol 1 (RR-Independent, Section 3.1): each party randomizes every
// attribute independently with a KeepUniform matrix; the controller
// estimates each marginal with Eq. (2) and treats attributes as
// independent when answering joint queries.
//
// Each attribute runs through one FrequencyOracle and one ColumnRunner
// (core/frequency_oracle.h): the sequential protocol runs AccumulateColumn
// over its Rng, the sharded engine runs BatchPerturbationEngine::RunOracle.
// The default oracle wraps the design matrix (DirectEncodingOracle), so
// the release is the paper's RR transcript; a caller-supplied factory
// swaps in another backend (SUE/OUE/OLH) behind the same loop.

#ifndef MDRR_CORE_RR_INDEPENDENT_H_
#define MDRR_CORE_RR_INDEPENDENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

// Which per-attribute design Protocol 1 randomizes with.
enum class IndependentDesign {
  // KeepUniform(p) per attribute (the Section 6.3.1 design).
  kKeepUniform,
  // GeometricOrdinal(epsilon) per attribute: the distance-sensitive
  // ordinal design (rr_matrix.h), with the same Expression (4) epsilon
  // for every attribute.
  kGeometricOrdinal,
};

struct RrIndependentOptions {
  // The keep probability p of each per-attribute KeepUniform matrix
  // (Section 6.3.1 design). kKeepUniform only.
  double keep_probability = 0.7;
  IndependentDesign design = IndependentDesign::kKeepUniform;
  // Per-attribute Expression (4) epsilon. kGeometricOrdinal only.
  double geometric_epsilon = 1.0;
};

// The per-attribute randomization matrix the options describe, for an
// attribute of cardinality r. Shared by the sequential and sharded
// Protocol 1 paths and by the streaming release driver, so every
// consumer of one option set randomizes and estimates through the same
// design.
RrMatrix MakeIndependentMatrix(size_t r, const RrIndependentOptions& options);

struct RrIndependentResult {
  // Y: the published randomized data set. Empty when the oracle is a
  // frequency-only backend (no microdata).
  Dataset randomized;
  // λ̂_j: empirical (support) distribution of each randomized attribute.
  std::vector<std::vector<double>> lambda;
  // Raw Eq. (2) estimates (may leave the simplex).
  std::vector<std::vector<double>> raw_estimated;
  // Section 6.4 projected estimates π̂_j (proper distributions).
  std::vector<std::vector<double>> estimated;
  // Each attribute's oracle epsilon: the exact Expression (4) epsilon of
  // its matrix under the default oracle.
  std::vector<double> epsilons;
  // Sequential composition over attributes.
  double total_epsilon = 0.0;
};

// Runs Protocol 1. Fails on an empty dataset.
StatusOr<RrIndependentResult> RunRrIndependent(
    const Dataset& dataset, const RrIndependentOptions& options, Rng& rng);

// Builds the oracle for an attribute of cardinality r.
using OracleFactory =
    std::function<StatusOr<std::unique_ptr<FrequencyOracle>>(size_t r)>;

// The protocol frame behind RunRrIndependent: attribute j runs through
// `run_column` at column index j (BatchPerturbationEngine passes its
// sharded runner, which keys RNG sub-streams off the index). Each
// attribute's oracle comes from `make_oracle`; an empty factory uses
// DirectEncodingOracle(MakeIndependentMatrix(r, options)).
// RunRrIndependent(..., rng) == RunRrIndependentWith(..., AccumulateColumn
// over rng).
StatusOr<RrIndependentResult> RunRrIndependentWith(
    const Dataset& dataset, const RrIndependentOptions& options,
    const ColumnRunner& run_column, const OracleFactory& make_oracle = {});

// The Protocol 1 joint-query estimator (product of estimated marginals).
IndependentMarginalsEstimate MakeIndependentEstimate(
    const RrIndependentResult& result);

}  // namespace mdrr

#endif  // MDRR_CORE_RR_INDEPENDENT_H_
