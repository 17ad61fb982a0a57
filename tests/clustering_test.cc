#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/clustering.h"
#include "mdrr/core/dependence.h"
#include "mdrr/dataset/adult.h"

namespace mdrr {
namespace {

linalg::Matrix MakeDependences(
    size_t m, const std::vector<std::tuple<size_t, size_t, double>>& entries) {
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  for (const auto& [i, j, d] : entries) {
    deps(i, j) = d;
    deps(j, i) = d;
  }
  return deps;
}

TEST(ClusteringTest, MergesMostDependentPairFirst) {
  // Cards 3,3,3; dep(0,1)=0.9, dep(1,2)=0.5; Tv allows only one merge of
  // two attributes (3*3=9 <= 10 but 3*3*3=27 > 10).
  linalg::Matrix deps = MakeDependences(3, {{0, 1, 0.9}, {1, 2, 0.5}});
  ClusteringOptions options{/*max_combinations=*/10.0,
                            /*min_dependence=*/0.1};
  auto clusters = ClusterAttributes({3, 3, 3}, deps, options);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 2u);
  EXPECT_EQ(clusters.value()[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters.value()[1], (std::vector<size_t>{2}));
}

TEST(ClusteringTest, TdOneMeansNoClustering) {
  // Td > every dependence: all singletons (the paper: "Td = 1 means
  // attributes are never clustered").
  linalg::Matrix deps = MakeDependences(3, {{0, 1, 0.9}, {1, 2, 0.8}});
  ClusteringOptions options{1000.0, 1.0 + 1e-12};
  auto clusters = ClusterAttributes({3, 3, 3}, deps, options);
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(clusters.value().size(), 3u);
}

TEST(ClusteringTest, TdZeroWithBigTvMergesEverything) {
  linalg::Matrix deps = MakeDependences(4, {{0, 1, 0.3}, {2, 3, 0.2}});
  ClusteringOptions options{1e9, 0.0};
  auto clusters = ClusterAttributes({2, 2, 2, 2}, deps, options);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 1u);
  EXPECT_EQ(clusters.value()[0], (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ClusteringTest, TvBlocksOversizedMerge) {
  // dep(0,1) huge but 16*15=240 > Tv=100: must stay separate; the weaker
  // pair (2,3) with 2*2=4 merges.
  linalg::Matrix deps = MakeDependences(4, {{0, 1, 0.95}, {2, 3, 0.4}});
  ClusteringOptions options{100.0, 0.1};
  auto clusters = ClusterAttributes({16, 15, 2, 2}, deps, options);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 3u);
  EXPECT_EQ(clusters.value()[0], (std::vector<size_t>{0}));
  EXPECT_EQ(clusters.value()[1], (std::vector<size_t>{1}));
  EXPECT_EQ(clusters.value()[2], (std::vector<size_t>{2, 3}));
}

TEST(ClusteringTest, ChainMergesTransitively) {
  // 0-1 strong, 1-2 strong: all three merge when Tv allows.
  linalg::Matrix deps = MakeDependences(3, {{0, 1, 0.9}, {1, 2, 0.8}});
  ClusteringOptions options{30.0, 0.5};
  auto clusters = ClusterAttributes({3, 3, 3}, deps, options);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 1u);
  EXPECT_EQ(clusters.value()[0], (std::vector<size_t>{0, 1, 2}));
}

TEST(ClusteringTest, ClusterDependenceIsMaxCrossPair) {
  // After merging {0,1}, dep({0,1},{2}) = max(dep(0,2), dep(1,2)) = 0.6
  // >= Td, so 2 joins even though dep(0,2) is tiny.
  linalg::Matrix deps =
      MakeDependences(3, {{0, 1, 0.9}, {1, 2, 0.6}, {0, 2, 0.05}});
  ClusteringOptions options{27.0, 0.55};
  auto clusters = ClusterAttributes({3, 3, 3}, deps, options);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 1u);
}

TEST(ClusteringTest, PartitionInvariant) {
  // Output is always a partition of {0..m-1}.
  linalg::Matrix deps = MakeDependences(
      5, {{0, 1, 0.9}, {1, 2, 0.7}, {3, 4, 0.6}, {0, 4, 0.2}});
  ClusteringOptions options{50.0, 0.3};
  auto clusters = ClusterAttributes({3, 4, 2, 5, 2}, deps, options);
  ASSERT_TRUE(clusters.ok());
  std::vector<int> seen(5, 0);
  for (const auto& cluster : clusters.value()) {
    for (size_t j : cluster) {
      ASSERT_LT(j, 5u);
      ++seen[j];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ClusteringTest, RejectsBadInput) {
  linalg::Matrix deps = MakeDependences(2, {});
  EXPECT_FALSE(ClusterAttributes(std::vector<int64_t>{}, deps,
                                 ClusteringOptions{10, 0.1})
                   .ok());
  EXPECT_FALSE(
      ClusterAttributes({2, 2, 2}, deps, ClusteringOptions{10, 0.1}).ok());
  EXPECT_FALSE(
      ClusterAttributes({2, 2}, deps, ClusteringOptions{0.5, 0.1}).ok());
}

TEST(ClusteringTest, RejectsNanTv) {
  // A NaN Tv fails every comparison, so it must not slip past a `< 1`
  // check and then refuse every merge.
  linalg::Matrix deps = MakeDependences(2, {{0, 1, 0.9}});
  StatusOr<AttributeClustering> clusters = ClusterAttributes(
      {2, 2}, deps,
      ClusteringOptions{std::numeric_limits<double>::quiet_NaN(), 0.1});
  EXPECT_EQ(clusters.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusteringTest, ClusterCombinations) {
  EXPECT_DOUBLE_EQ(ClusterCombinations({3, 4, 5}, {0, 2}), 15.0);
  EXPECT_DOUBLE_EQ(ClusterCombinations({3, 4, 5}, {1}), 4.0);
}

TEST(ClusteringTest, AdultWithPaperThresholds) {
  // Smoke check on the Adult dependence structure: with Tv=50, Td=0.1
  // (a Table 1 cell) the strongly-coupled Marital/Relationship/Sex family
  // clusters while total combinations stay within Tv.
  Dataset ds = SynthesizeAdult(20000, 91);
  linalg::Matrix deps = DependenceMatrix(ds);
  ClusteringOptions options{50.0, 0.1};
  auto clusters = ClusterAttributes(ds, deps, options);
  ASSERT_TRUE(clusters.ok());

  std::vector<int64_t> cards = ds.Cardinalities();
  for (const auto& cluster : clusters.value()) {
    EXPECT_LE(ClusterCombinations(cards, cluster), 50.0);
  }
  // Relationship and Sex form the strongest pair (6 * 2 = 12 <= 50), so
  // they must share a cluster. Marital-status cannot join them
  // (7 * 6 * 2 = 84 > Tv) -- the Tv cap visibly shapes the clustering.
  bool together = false;
  bool marital_with_them = false;
  for (const auto& cluster : clusters.value()) {
    bool has_sex = false;
    bool has_relationship = false;
    bool has_marital = false;
    for (size_t j : cluster) {
      if (j == kAdultSex) has_sex = true;
      if (j == kAdultRelationship) has_relationship = true;
      if (j == kAdultMaritalStatus) has_marital = true;
    }
    if (has_sex && has_relationship) {
      together = true;
      marital_with_them = has_marital;
    }
  }
  EXPECT_TRUE(together);
  EXPECT_FALSE(marital_with_them);

  std::string description = ClusteringToString(ds, clusters.value());
  EXPECT_NE(description.find("Relationship"), std::string::npos);
}

}  // namespace
}  // namespace mdrr
