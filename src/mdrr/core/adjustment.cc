#include "mdrr/core/adjustment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"

namespace mdrr {

namespace {

// The normalized reweighting table of one Adjust_weights step (Algorithm
// 2 lines 6-7). ratio[v] = target[v] / implied[v] rescales the group's
// implied marginal onto its target; dividing the whole table by the
// post-rescale total mass (which is just the target mass of the
// reachable categories -- no record scan needed) folds the
// renormalization of the sequential algorithm into the same multiply.
std::vector<double> NormalizedRatio(const double* implied,
                                    const std::vector<double>& target) {
  std::vector<double> ratio(target.size(), 1.0);
  double total_after = 0.0;
  for (size_t v = 0; v < target.size(); ++v) {
    if (implied[v] > 0.0) {
      ratio[v] = target[v] / implied[v];
      total_after += target[v];
    }
    // Categories with zero implied mass cannot be repaired by
    // reweighting (no record carries them); their target mass is
    // unreachable and shows up in max_marginal_gap.
  }
  MDRR_CHECK_GT(total_after, 0.0);
  for (double& r : ratio) r /= total_after;
  return ratio;
}

// One chunked record sweep over the live columns [first, last) of the
// accumulator: `record(i, row)` runs for every record i with `row` the
// lane row record i adds into, and must add only into the live columns.
// The record at chunk offset k adds into lane k % Lanes, so consecutive
// records with equal codes update independent slots instead of one
// store-to-load chain; chunk c owns rows [c * Lanes, (c + 1) * Lanes),
// which ReduceInto merges lane by lane and then in chunk order.
// Each chunk zeroes its own lane rows' live columns before it adds, and
// the live columns are then merged into out[first, last); columns
// outside the range are neither touched nor merged, so a pass pays for
// the marginals it accumulates, not for the total group width.
template <size_t Lanes, typename RecordFn>
void Sweep(size_t n, size_t chunk_size, size_t num_threads, size_t first,
           size_t last, ChunkedDoubleAccumulator& acc, double* out,
           const RecordFn& record) {
  ParallelChunks(n, chunk_size, num_threads,
                 [&](size_t /*worker*/, size_t chunk, size_t begin,
                     size_t end) {
                   double* rows[Lanes];
                   for (size_t l = 0; l < Lanes; ++l) {
                     rows[l] = acc.Row(chunk * Lanes + l);
                     std::fill(rows[l] + first, rows[l] + last, 0.0);
                   }
                   size_t i = begin;
                   for (; i + Lanes <= end; i += Lanes) {
                     for (size_t l = 0; l < Lanes; ++l) record(i + l, rows[l]);
                   }
                   for (size_t l = 0; i < end; ++i, ++l) record(i, rows[l]);
                 });
  acc.ReduceInto(out, first, last);
}

// Algorithm 2 over group codes narrowed to `Code`, which holds every
// group's widest code. Validates the code ranges while narrowing.
template <typename Code>
StatusOr<AdjustmentResult> RunWithCodes(
    const std::vector<AdjustmentGroup>& groups, size_t n,
    const AdjustmentOptions& options) {
  const size_t num_groups = groups.size();
  std::vector<std::vector<Code>> codes(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t* source = groups[g].codes.data();
    const size_t width = groups[g].target.size();
    codes[g].resize(n);
    Code* narrow = codes[g].data();
    bool out_of_range = false;
    for (size_t i = 0; i < n; ++i) {
      out_of_range |= source[i] >= width;
      narrow[i] = static_cast<Code>(source[i]);
    }
    if (out_of_range) {
      return Status::InvalidArgument("group code out of target range");
    }
  }

  const size_t chunk_size = std::max<size_t>(1, options.chunk_size);
  const size_t num_threads = options.num_threads;

  // Flattened layout of all groups' marginals: group g occupies
  // [group_offset[g], group_offset[g] + |target_g|) of every lane row and
  // of `implied`.
  std::vector<size_t> group_offset(num_groups);
  size_t total_width = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    group_offset[g] = total_width;
    total_width += groups[g].target.size();
  }
  std::vector<const Code*> group_codes(num_groups);
  for (size_t g = 0; g < num_groups; ++g) group_codes[g] = codes[g].data();

  AdjustmentResult result;
  result.weights.assign(n, 1.0 / static_cast<double>(n));
  double* const weights = result.weights.data();

  // Narrow (u8) sweeps, where every group has at most 256 cells, take 4
  // lanes: equal codes are frequent there, and 4 rows of at most 256
  // cells per group cost little to zero and merge. Wider sweeps take 1
  // lane: equal codes are rarer, and 4 rows of a wide marginal cost more
  // than the chains they break. The summation tree thus depends only on
  // (n, chunk_size, code width).
  constexpr size_t kSweepLanes = sizeof(Code) == 1 ? 4 : 1;

  // One accumulator of total group width serves every pass; `implied`
  // receives each pass's merged marginals.
  ChunkedDoubleAccumulator acc(NumChunks(n, chunk_size) * kSweepLanes,
                               total_width);
  std::vector<double> implied(total_width, 0.0);

  // Group 0's implied marginal under the uniform start; later iterations
  // take it from the previous iteration's last pass.
  const Code* const codes_0 = group_codes[0];
  Sweep<kSweepLanes>(
      n, chunk_size, num_threads, 0, groups[0].target.size(), acc,
      implied.data(),
      [=](size_t i, double* row) { row[codes_0[i]] += weights[i]; });
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t g = 0; g < num_groups; ++g) {
      // implied[group_offset[g] ...] holds group g's marginal under the
      // weights after groups 0..g-1 were updated this iteration.
      const std::vector<double> ratio_table =
          NormalizedRatio(implied.data() + group_offset[g], groups[g].target);
      const double* const ratio = ratio_table.data();
      const Code* const codes_g = group_codes[g];

      if (g + 1 < num_groups) {
        // Middle pass: apply group g's ratio and accumulate group g+1's
        // implied marginal in the same scan.
        const Code* const codes_next = group_codes[g + 1];
        const size_t offset_next = group_offset[g + 1];
        Sweep<kSweepLanes>(
            n, chunk_size, num_threads, offset_next,
            offset_next + groups[g + 1].target.size(), acc, implied.data(),
            [=](size_t i, double* row) {
              const double w = weights[i] * ratio[codes_g[i]];
              weights[i] = w;
              row[offset_next + codes_next[i]] += w;
            });
      } else {
        // Last pass of the iteration: apply the final ratio and
        // accumulate every group's implied marginal at once -- the
        // convergence test and next iteration's first group both read
        // from this single scan.
        const Code* const* const scan_codes = group_codes.data();
        const size_t* const offsets = group_offset.data();
        Sweep<kSweepLanes>(
            n, chunk_size, num_threads, 0, total_width, acc, implied.data(),
            [=](size_t i, double* row) {
              const double w = weights[i] * ratio[codes_g[i]];
              weights[i] = w;
              for (size_t h = 0; h < num_groups; ++h) {
                row[offsets[h] + scan_codes[h][i]] += w;
              }
            });
      }
    }
    result.iterations = iter + 1;

    // Convergence test: largest marginal gap across all groups, measured
    // on the end-of-iteration weights (same semantics as the sequential
    // three-scan algorithm).
    double max_gap = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      const double* implied_g = implied.data() + group_offset[g];
      for (size_t v = 0; v < groups[g].target.size(); ++v) {
        max_gap = std::max(max_gap,
                           std::fabs(implied_g[v] - groups[g].target[v]));
      }
    }
    result.max_marginal_gap = max_gap;
    if (max_gap < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // The folded renormalization keeps the total at 1 only up to one
  // rounding per iteration; settle the invariant exactly with one final
  // chunk-ordered reduction.
  ChunkedDoubleAccumulator totals(NumChunks(n, chunk_size), 1);
  ParallelChunks(n, chunk_size, num_threads,
                 [&](size_t /*worker*/, size_t chunk, size_t begin,
                     size_t end) {
                   double sum = 0.0;
                   for (size_t i = begin; i < end; ++i) sum += weights[i];
                   *totals.Row(chunk) = sum;
                 });
  double total = 0.0;
  totals.ReduceInto(&total);
  MDRR_CHECK_GT(total, 0.0);
  ParallelChunks(n, chunk_size, num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) weights[i] /= total;
                 });
  return result;
}

}  // namespace

StatusOr<AdjustmentResult> RunRrAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    const AdjustmentOptions& options) {
  if (groups.empty()) {
    return Status::InvalidArgument("adjustment needs at least one group");
  }
  if (num_records == 0) {
    return Status::InvalidArgument("adjustment needs at least one record");
  }
  size_t max_width = 0;
  for (const AdjustmentGroup& group : groups) {
    if (group.codes.size() != num_records) {
      return Status::InvalidArgument("group code vector size mismatch");
    }
    double total = 0.0;
    for (double t : group.target) {
      if (t < 0.0) {
        return Status::InvalidArgument("target distribution has negatives");
      }
      total += t;
    }
    if (std::fabs(total - 1.0) > 1e-6) {
      return Status::InvalidArgument("target distribution does not sum to 1");
    }
    max_width = std::max(max_width, group.target.size());
  }

  // The record sweeps read each group's codes in the narrowest unsigned
  // type that holds the widest group.
  if (max_width <= size_t{1} << 8) {
    return RunWithCodes<uint8_t>(groups, num_records, options);
  }
  if (max_width <= size_t{1} << 16) {
    return RunWithCodes<uint16_t>(groups, num_records, options);
  }
  return RunWithCodes<uint32_t>(groups, num_records, options);
}

std::vector<AdjustmentGroup> GroupsFromIndependent(
    const RrIndependentResult& result) {
  std::vector<AdjustmentGroup> groups;
  groups.reserve(result.randomized.num_attributes());
  for (size_t j = 0; j < result.randomized.num_attributes(); ++j) {
    groups.push_back(
        AdjustmentGroup{result.randomized.column(j), result.estimated[j]});
  }
  return groups;
}

std::vector<AdjustmentGroup> GroupsFromClusters(
    const RrClustersResult& result) {
  std::vector<AdjustmentGroup> groups;
  groups.reserve(result.cluster_results.size());
  for (const RrJointResult& joint : result.cluster_results) {
    groups.push_back(
        AdjustmentGroup{joint.randomized_codes, joint.estimated});
  }
  return groups;
}

StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrIndependentResult& result, const AdjustmentOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      AdjustmentResult adjustment,
      RunRrAdjustment(GroupsFromIndependent(result),
                      result.randomized.num_rows(), options));
  return WeightedRecordsEstimate(result.randomized,
                                 std::move(adjustment.weights));
}

StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrClustersResult& result, const AdjustmentOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      AdjustmentResult adjustment,
      RunRrAdjustment(GroupsFromClusters(result),
                      result.randomized.num_rows(), options));
  return WeightedRecordsEstimate(result.randomized,
                                 std::move(adjustment.weights));
}

}  // namespace mdrr
