// Attribute dependence measures (Section 4, Expressions (8) and (9)):
// |Pearson r| for ordinal-ordinal pairs, Cramér's V when any attribute is
// nominal. Both lie in [0, 1], so mixed comparisons are meaningful.

#ifndef MDRR_CORE_DEPENDENCE_H_
#define MDRR_CORE_DEPENDENCE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/linalg/matrix.h"

namespace mdrr {

// Selectable dependence statistic. kPaperAuto is the paper's rule
// (|Pearson| for ordinal pairs, Cramér's V otherwise); the others force
// one statistic regardless of attribute types. All are bounded in [0, 1],
// so any of them can drive Algorithm 1.
enum class DependenceMeasure {
  kPaperAuto,
  kCramersV,
  kAbsPearson,
  kNormalizedMutualInformation,
};

// Dependence in [0, 1] between two code columns given their measurement
// types and cardinalities. Ordinal codes are treated as ranks.
double DependenceBetweenColumns(const std::vector<uint32_t>& codes_a,
                                size_t cardinality_a, AttributeType type_a,
                                const std::vector<uint32_t>& codes_b,
                                size_t cardinality_b, AttributeType type_b);

// Normalized mutual information I(A;B) / min(H(A), H(B)) in [0, 1];
// 0 when either variable is constant. Natural-log entropies.
double NormalizedMutualInformation(const std::vector<uint32_t>& codes_a,
                                   size_t cardinality_a,
                                   const std::vector<uint32_t>& codes_b,
                                   size_t cardinality_b);

// NMI from a joint weight table (probabilities or counts; negatives are
// clamped to 0), row-major [cardinality_a x cardinality_b].
double NormalizedMutualInformationFromJoint(const std::vector<double>& joint,
                                            size_t cardinality_a,
                                            size_t cardinality_b);

// Pairwise dependence matrix under an explicit measure choice.
linalg::Matrix DependenceMatrixWithMeasure(const Dataset& dataset,
                                           DependenceMeasure measure);

// Threading knobs for the sharded dependence assessment. The record
// chunk size is purely a load-balancing grain here: per-pair joint
// counts are integers, and integer sums commute exactly, so the sharded
// matrix is bit-identical for ANY thread count and ANY chunk size.
struct DependenceShardingOptions {
  // Worker threads; 0 means one per hardware core.
  size_t num_threads = 1;
  // Records per work unit when a pair's contingency accumulation is
  // sharded over record ranges. 0 is clamped to 1.
  size_t record_chunk_size = 1 << 16;
};

// The row-major upper-triangle pair grid (i < j) of m attributes. Index
// p of the list is the pair's position in every pair-ordered transcript
// (the assessment estimators key pair p's randomness on stream 1 + p).
std::vector<std::pair<size_t, size_t>> UpperTrianglePairs(size_t m);

// The adaptive pair-grid scheduler of the dependence assessment: runs
// job(pair, worker, shard_records) for every pair in [0, num_pairs). When
// the grid can feed every record worker (num_pairs >= 2 x workers),
// pairs run in parallel, each serially over its records; otherwise they
// run one after another with `shard_records` set, each sharding its own
// record scan over the options' threads and chunk size. Jobs must produce
// the same output in both regimes, so the choice never changes results.
// `worker` indexes per-worker scratch (below ResolveWorkerCount(
// options.num_threads, num_pairs, 1)). Returns the first failing pair's
// Status in pair order. Each pair runs at most once; the pair-serial
// regime stops at the first failure.
Status ForEachPair(
    size_t num_pairs, size_t num_records,
    const DependenceShardingOptions& options,
    const std::function<Status(size_t pair, size_t worker,
                               bool shard_records)>& job);

// Joint counts of (codes_a[i], codes_b[i]), row-major [cardinality_a x
// cardinality_b], sharded over record ranges with per-worker buffers.
std::vector<int64_t> PairCountsSharded(
    const std::vector<uint32_t>& codes_a, size_t cardinality_a,
    const std::vector<uint32_t>& codes_b, size_t cardinality_b,
    const DependenceShardingOptions& options);

// Sharded pairwise dependence matrix: the pair grid runs through
// ForEachPair, with PairCountsSharded accumulating a pair's contingency
// table in the record-range regime. Every statistic is computed from the
// pair's exact joint counts, so the output is a pure function of the
// data and the measure -- independent of thread count and chunk size.
// Cramér's V and NMI values are bitwise equal to the sequential
// functions above; |Pearson| is computed from the joint table rather
// than the raw columns and may differ from them in the last few ulps.
linalg::Matrix DependenceMatrixSharded(
    const Dataset& dataset, DependenceMeasure measure,
    const DependenceShardingOptions& options);

// Dependence between attributes i and j of `dataset`.
double DependenceBetween(const Dataset& dataset, size_t i, size_t j);

// Symmetric m x m matrix of pairwise dependences (diagonal = 1).
linalg::Matrix DependenceMatrix(const Dataset& dataset);

// Dependence computed from a bivariate distribution rather than raw codes
// (used by the Section 4.2/4.3 estimators, which only see joint tables).
// `joint` is row-major [cardinality_a x cardinality_b] and may hold
// probabilities or counts; `n` is the effective sample size for chi².
double DependenceFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, AttributeType type_a,
                           size_t cardinality_b, AttributeType type_b,
                           double n);

// |Pearson correlation| computed from a joint table over code values.
double AbsPearsonFromJoint(const std::vector<double>& joint,
                           size_t cardinality_a, size_t cardinality_b);

}  // namespace mdrr

#endif  // MDRR_CORE_DEPENDENCE_H_
