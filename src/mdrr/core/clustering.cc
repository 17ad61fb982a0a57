#include "mdrr/core/clustering.h"

#include <algorithm>

#include "mdrr/common/check.h"

namespace mdrr {

namespace {

// Dependence between two clusters: the maximum pairwise dependence across
// them (Section 4).
double ClusterDependence(const linalg::Matrix& dependences,
                         const std::vector<size_t>& c1,
                         const std::vector<size_t>& c2) {
  double best = 0.0;
  for (size_t i : c1) {
    for (size_t j : c2) {
      best = std::max(best, dependences(i, j));
    }
  }
  return best;
}

struct ClusterPair {
  double dependence;
  size_t first;   // Index into the cluster list.
  size_t second;  // Index into the cluster list; first < second.
};

// Descending dependence; deterministic tie-break on indices.
std::vector<ClusterPair> BuildDependenceList(
    const linalg::Matrix& dependences, const AttributeClustering& clusters) {
  std::vector<ClusterPair> list;
  for (size_t a = 0; a < clusters.size(); ++a) {
    for (size_t b = a + 1; b < clusters.size(); ++b) {
      list.push_back(ClusterPair{
          ClusterDependence(dependences, clusters[a], clusters[b]), a, b});
    }
  }
  std::sort(list.begin(), list.end(),
            [](const ClusterPair& x, const ClusterPair& y) {
              if (x.dependence != y.dependence) {
                return x.dependence > y.dependence;
              }
              if (x.first != y.first) return x.first < y.first;
              return x.second < y.second;
            });
  return list;
}

}  // namespace

double ClusterCombinations(const std::vector<int64_t>& cardinalities,
                           const std::vector<size_t>& cluster) {
  double product = 1.0;
  for (size_t j : cluster) {
    MDRR_CHECK_LT(j, cardinalities.size());
    product *= static_cast<double>(cardinalities[j]);
  }
  return product;
}

StatusOr<AttributeClustering> ClusterAttributes(
    const std::vector<int64_t>& cardinalities,
    const linalg::Matrix& dependences, const ClusteringOptions& options) {
  const size_t m = cardinalities.size();
  if (m == 0) return Status::InvalidArgument("no attributes to cluster");
  if (dependences.rows() != m || dependences.cols() != m) {
    return Status::InvalidArgument(
        "dependence matrix shape does not match attribute count");
  }
  if (!(options.max_combinations >= 1.0)) {  // Also rejects NaN.
    return Status::InvalidArgument("Tv must be >= 1");
  }

  // Start from singleton clusters (Algorithm 1, step 3).
  AttributeClustering clusters;
  clusters.reserve(m);
  for (size_t j = 0; j < m; ++j) clusters.push_back({j});

  // Walk the dependence list in descending order; merge when the combined
  // cluster stays within Tv; recompute the list after every merge
  // (Algorithm 1, steps 5-18).
  std::vector<ClusterPair> list = BuildDependenceList(dependences, clusters);
  size_t cursor = 0;
  while (cursor < list.size() &&
         list[cursor].dependence >= options.min_dependence) {
    const ClusterPair& pair = list[cursor];
    std::vector<size_t> merged = clusters[pair.first];
    merged.insert(merged.end(), clusters[pair.second].begin(),
                  clusters[pair.second].end());
    if (ClusterCombinations(cardinalities, merged) <=
        options.max_combinations) {
      std::sort(merged.begin(), merged.end());
      // Remove the higher index first so the lower one stays valid.
      clusters.erase(clusters.begin() + static_cast<ptrdiff_t>(pair.second));
      clusters.erase(clusters.begin() + static_cast<ptrdiff_t>(pair.first));
      clusters.push_back(std::move(merged));
      list = BuildDependenceList(dependences, clusters);
      cursor = 0;
    } else {
      ++cursor;
    }
  }

  // Canonical order: sort clusters by their smallest member.
  std::sort(clusters.begin(), clusters.end(),
            [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return a.front() < b.front();
            });
  return clusters;
}

StatusOr<AttributeClustering> ClusterAttributes(
    const Dataset& dataset, const linalg::Matrix& dependences,
    const ClusteringOptions& options) {
  return ClusterAttributes(dataset.Cardinalities(), dependences, options);
}

std::string ClusteringToString(const Dataset& dataset,
                               const AttributeClustering& clustering) {
  std::string out;
  for (const std::vector<size_t>& cluster : clustering) {
    out += "{";
    for (size_t k = 0; k < cluster.size(); ++k) {
      if (k > 0) out += ",";
      out += dataset.attribute(cluster[k]).name;
    }
    out += "}";
  }
  return out;
}

}  // namespace mdrr
