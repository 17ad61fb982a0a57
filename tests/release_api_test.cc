// Golden equivalence and round-trip tests for the declarative release
// API: for every mechanism, the façade's output is bit-identical to the
// corresponding direct stage-function / BatchPerturbationEngine
// composition at the same seed, under both execution policies; specs
// serialize losslessly; the budget cap and estimator builders behave.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/pram.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/release/planner.h"
#include "mdrr/release/serialization.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

namespace release = ::mdrr::release;

constexpr uint64_t kSeed = 11;
constexpr size_t kRecords = 2500;
constexpr size_t kShard = 512;  // Small enough for real sharding at 2500.

Dataset TestData() { return SynthesizeAdult(kRecords, /*seed=*/9); }

void ExpectSameData(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    EXPECT_EQ(a.column(j), b.column(j)) << "column " << j;
  }
}

void ExpectSameMatrix(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "entry (" << i << "," << j << ")";
    }
  }
}

release::ReleaseSpec BaseSpec(release::MechanismKind kind,
                              release::PolicyKind policy) {
  release::ReleaseSpec spec;
  spec.mechanism.kind = kind;
  spec.execution.kind = policy;
  spec.execution.seed = kSeed;
  spec.execution.num_threads = 4;
  spec.execution.shard_size = kShard;
  return spec;
}

release::ReleaseArtifacts MustRun(const release::ReleaseSpec& spec,
                                  const Dataset& data) {
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto artifacts = plan.value().Run();
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  return std::move(artifacts).value();
}

AdjustmentOptions DefaultAdjustment() {
  AdjustmentOptions options;  // max_iterations 100, tolerance 1e-9.
  return options;
}

// --- Independent: façade == RunRrIndependent / engine.RunIndependent. ---

TEST(ReleaseApiGolden, IndependentSequential) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.6;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  // The direct composition: one Rng threaded through the stages in
  // order (mechanism, then synthesis; adjustment draws no randomness).
  Rng rng(kSeed);
  auto direct = RunRrIndependent(data, RrIndependentOptions{0.6}, rng);
  ASSERT_TRUE(direct.ok());
  auto adjusted = RunRrAdjustment(GroupsFromIndependent(*direct),
                                  data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = SynthesizeFromIndependent(
      *direct, static_cast<int64_t>(data.num_rows()), rng);
  ASSERT_TRUE(synthetic.ok());

  ExpectSameData(facade.randomized, direct.value().randomized);
  EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);
  EXPECT_EQ(facade.independent->lambda, direct.value().lambda);
  EXPECT_EQ(facade.independent->raw_estimated, direct.value().raw_estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().total_epsilon);
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  EXPECT_EQ(facade.adjustment->iterations, adjusted.value().iterations);
  ExpectSameData(*facade.synthetic, synthetic.value());

  // An explicit group list selects those attributes' groups, in the
  // order the spec lists them.
  spec.adjustment.groups = {{3}, {0}};
  release::ReleaseArtifacts selected = MustRun(spec, data);
  const std::vector<AdjustmentGroup> all = GroupsFromIndependent(*direct);
  auto adjusted_selected = RunRrAdjustment(
      {all[3], all[0]}, data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted_selected.ok());
  EXPECT_EQ(selected.adjustment->weights, adjusted_selected.value().weights);
  EXPECT_EQ(selected.adjustment->iterations,
            adjusted_selected.value().iterations);
}

TEST(ReleaseApiGolden, IndependentSharded) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.6;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct = engine.RunIndependent(data, RrIndependentOptions{0.6});
  ASSERT_TRUE(direct.ok());
  auto adjusted = engine.RunAdjustment(GroupsFromIndependent(*direct),
                                       data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = engine.SynthesizeIndependent(
      *direct, static_cast<int64_t>(data.num_rows()));
  ASSERT_TRUE(synthetic.ok());

  ExpectSameData(facade.randomized, direct.value().randomized);
  EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

// --- Joint: façade == RunRrJoint / engine.RunJoint. ---

TEST(ReleaseApiGolden, JointSequential) {
  Dataset data = TestData();
  const std::vector<size_t> attrs = {kAdultMaritalStatus,
                                     kAdultRelationship, kAdultSex};
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kJoint,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.7;
  spec.mechanism.joint_attributes = attrs;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  Rng rng(kSeed);
  double budget = ClusterEpsilonBudget(data, attrs, 0.7);
  auto direct = RunRrJoint(data, attrs, budget, rng);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(facade.joint->randomized_codes, direct.value().randomized_codes);
  EXPECT_EQ(facade.joint->estimated, direct.value().estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().epsilon);
  // The façade's released columns are the decode of the direct codes.
  ASSERT_EQ(facade.randomized.num_attributes(), attrs.size());
  for (size_t position = 0; position < attrs.size(); ++position) {
    for (size_t row = 0; row < data.num_rows(); ++row) {
      ASSERT_EQ(facade.randomized.at(row, position),
                direct.value().domain.DecodeAt(
                    direct.value().randomized_codes[row], position));
    }
  }
}

TEST(ReleaseApiGolden, JointSharded) {
  Dataset data = TestData();
  const std::vector<size_t> attrs = {kAdultEducation, kAdultSex};
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kJoint,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.7;
  spec.mechanism.joint_attributes = attrs;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct =
      engine.RunJoint(data, attrs, ClusterEpsilonBudget(data, attrs, 0.7));
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(facade.joint->randomized_codes, direct.value().randomized_codes);
  EXPECT_EQ(facade.joint->estimated, direct.value().estimated);
  EXPECT_EQ(facade.release_epsilon, direct.value().epsilon);
  // The engine-threaded decode equals the per-row decode.
  ASSERT_EQ(facade.randomized.num_attributes(), attrs.size());
  for (size_t position = 0; position < attrs.size(); ++position) {
    for (size_t row = 0; row < data.num_rows(); ++row) {
      ASSERT_EQ(facade.randomized.at(row, position),
                direct.value().domain.DecodeAt(
                    direct.value().randomized_codes[row], position));
    }
  }
}

// --- Clusters: façade == RunRrClusters / engine.RunClusters. ---

RrClustersOptions ClustersOptions() {
  RrClustersOptions options;
  options.keep_probability = 0.7;
  options.clustering = ClusteringOptions{50.0, 0.1};
  options.dependence_source = DependenceSource::kRandomizedResponse;
  options.dependence_keep_probability = 0.7;
  return options;
}

void ExpectSameClustersResult(const release::ReleaseArtifacts& facade,
                              const RrClustersResult& direct) {
  EXPECT_EQ(facade.clustering, direct.clusters);
  ExpectSameData(facade.randomized, direct.randomized);
  ExpectSameMatrix(facade.dependences, direct.dependences);
  EXPECT_EQ(facade.release_epsilon, direct.release_epsilon);
  EXPECT_EQ(facade.dependence_epsilon, direct.dependence_epsilon);
  ASSERT_EQ(facade.clusters->cluster_results.size(),
            direct.cluster_results.size());
  for (size_t c = 0; c < direct.cluster_results.size(); ++c) {
    EXPECT_EQ(facade.clusters->cluster_results[c].randomized_codes,
              direct.cluster_results[c].randomized_codes);
    EXPECT_EQ(facade.clusters->cluster_results[c].estimated,
              direct.cluster_results[c].estimated);
  }
}

TEST(ReleaseApiGolden, ClustersSequential) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.budget.keep_probability = 0.7;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  Rng rng(kSeed);
  auto direct = RunRrClusters(data, ClustersOptions(), rng);
  ASSERT_TRUE(direct.ok());
  auto adjusted = RunRrAdjustment(GroupsFromClusters(*direct),
                                  data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = SynthesizeFromClusters(
      *direct, static_cast<int64_t>(data.num_rows()), rng);
  ASSERT_TRUE(synthetic.ok());

  ExpectSameClustersResult(facade, direct.value());
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

TEST(ReleaseApiGolden, ClustersSharded) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSharded);
  spec.budget.keep_probability = 0.7;
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  release::ReleaseArtifacts facade = MustRun(spec, data);

  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);
  auto direct = engine.RunClusters(data, ClustersOptions());
  ASSERT_TRUE(direct.ok());
  auto adjusted = engine.RunAdjustment(GroupsFromClusters(*direct),
                                       data.num_rows(), DefaultAdjustment());
  ASSERT_TRUE(adjusted.ok());
  auto synthetic = engine.SynthesizeClusters(
      *direct, static_cast<int64_t>(data.num_rows()));
  ASSERT_TRUE(synthetic.ok());

  ExpectSameClustersResult(facade, direct.value());
  EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
  ExpectSameData(*facade.synthetic, synthetic.value());
}

// --- PRAM: façade == ApplyPram under either policy. ---

TEST(ReleaseApiGolden, PramBothPolicies) {
  Dataset data = TestData();
  Rng rng(kSeed);
  auto direct = ApplyPram(data, 0.8, rng);
  ASSERT_TRUE(direct.ok());
  // Algorithm 2 over one group per attribute: the published column and
  // its estimated marginal.
  std::vector<AdjustmentGroup> groups;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    groups.push_back(AdjustmentGroup{direct.value().randomized.column(j),
                                     direct.value().estimated[j]});
  }
  BatchPerturbationOptions engine_options;
  engine_options.seed = kSeed;
  engine_options.num_threads = 4;
  engine_options.shard_size = kShard;
  BatchPerturbationEngine engine(engine_options);

  for (release::PolicyKind policy :
       {release::PolicyKind::kSequential, release::PolicyKind::kSharded}) {
    release::ReleaseSpec spec =
        BaseSpec(release::MechanismKind::kPram, policy);
    spec.budget.keep_probability = 0.8;
    spec.adjustment.enabled = true;
    release::ReleaseArtifacts facade = MustRun(spec, data);
    ExpectSameData(facade.randomized, direct.value().randomized);
    EXPECT_EQ(facade.marginal_estimates, direct.value().estimated);

    auto adjusted =
        policy == release::PolicyKind::kSequential
            ? RunRrAdjustment(groups, data.num_rows(), DefaultAdjustment())
            : engine.RunAdjustment(groups, data.num_rows(),
                                   DefaultAdjustment());
    ASSERT_TRUE(adjusted.ok());
    EXPECT_EQ(facade.adjustment->weights, adjusted.value().weights);
    EXPECT_EQ(facade.adjustment->iterations, adjusted.value().iterations);
  }
}

// --- One policy, many thread counts: artifacts are invariant. ---

TEST(ReleaseApiGolden, ShardedThreadSweep) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSharded);
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;

  spec.execution.num_threads = 1;
  release::ReleaseArtifacts reference = MustRun(spec, data);
  for (size_t threads : {2u, 4u, 8u}) {
    spec.execution.num_threads = threads;
    release::ReleaseArtifacts artifacts = MustRun(spec, data);
    ExpectSameData(artifacts.randomized, reference.randomized);
    EXPECT_EQ(artifacts.marginal_estimates, reference.marginal_estimates);
    EXPECT_EQ(artifacts.adjustment->weights, reference.adjustment->weights);
    ExpectSameData(*artifacts.synthetic, *reference.synthetic);
  }
}

// --- Spec serialization round-trips. ---

TEST(ReleaseSpecSerialization, DefaultSpecRoundTrips) {
  release::ReleaseSpec spec;
  auto parsed =
      release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(ReleaseSpecSerialization, FullyPopulatedSpecRoundTrips) {
  // Every section non-default, including the conditionally printed
  // ones: distributed fields, an oracle section with an explicit epsilon,
  // repeated adjustment groups, and a path with a space.
  release::ReleaseSpec every_section;
  every_section.dataset.source = release::DatasetSpec::Source::kCsvFile;
  every_section.dataset.csv_path = "/tmp/my data.csv";
  every_section.mechanism.kind = release::MechanismKind::kIndependent;
  every_section.frequency_oracle.backend = OracleBackend::kLocalHashing;
  every_section.frequency_oracle.epsilon = 1.25;
  every_section.adjustment.enabled = true;
  every_section.adjustment.groups = {{1}, {0}};
  every_section.evaluation.sigmas = {0.15, 0.35};
  every_section.execution.kind = release::PolicyKind::kDistributed;
  every_section.execution.num_workers = 3;
  every_section.execution.listen_port = 7901;
  every_section.execution.worker_deadline_ms = 2500;
  every_section.output.randomized_csv = "/tmp/out dir/y.csv";
  every_section.output.synthetic_csv = "/tmp/s.csv";
  every_section.output.artifacts_path = "/tmp/a.txt";

  release::ReleaseSpec spec;
  spec.dataset.source = release::DatasetSpec::Source::kCsvFile;
  spec.dataset.csv_path = "/tmp/data.csv";
  spec.dataset.csv_has_header = false;
  spec.dataset.synthetic_records = 777;
  spec.dataset.synthetic_seed = 123456789;
  spec.budget.keep_probability = 0.55;
  spec.budget.dependence_keep_probability = 0.91;
  spec.budget.max_total_epsilon = 12.75;
  spec.mechanism.kind = release::MechanismKind::kJoint;
  spec.mechanism.joint_attributes = {4, 6, 7};
  spec.mechanism.clustering = ClusteringOptions{123.0, 0.25};
  spec.mechanism.dependence_source = DependenceSource::kPairwiseRr;
  spec.mechanism.use_paper_epsilon_formula = true;
  spec.adjustment.enabled = true;
  spec.adjustment.max_iterations = 17;
  spec.adjustment.tolerance = 1e-7;
  spec.adjustment.groups = {{0}, {3}};
  spec.synthetic.enabled = true;
  spec.synthetic.records = 4096;
  spec.evaluation.utility_report = true;
  spec.evaluation.sigmas = {0.2, 0.4};
  spec.evaluation.queries_per_sigma = 9;
  spec.evaluation.seed = 99;
  spec.execution.kind = release::PolicyKind::kSharded;
  spec.execution.seed = 31337;
  spec.execution.num_threads = 6;
  spec.execution.shard_size = 4096;
  spec.execution.rng = RngKind::kPhilox;
  spec.output.randomized_csv = "/tmp/y.csv";
  spec.output.synthetic_csv = "/tmp/s.csv";
  spec.output.artifacts_path = "/tmp/a.txt";

  for (const release::ReleaseSpec& input : {spec, every_section}) {
    std::string text = release::PrintReleaseSpec(input);
    auto parsed = release::ParseReleaseSpec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed.value() == input);
    // Printing the parse reproduces the text exactly.
    EXPECT_EQ(release::PrintReleaseSpec(parsed.value()), text);
  }
}

TEST(ReleaseSpecSerialization, SignedFieldsRoundTripEvenWhenInvalid) {
  // A spec that validation would reject must still round-trip, so the
  // rejection can happen after a re-read too.
  release::ReleaseSpec spec;
  spec.synthetic.records = -5;
  spec.adjustment.max_iterations = -1;
  auto parsed = release::ParseReleaseSpec(release::PrintReleaseSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
}

TEST(ReleaseSpecSerialization, OutOfRangeIntegersFailToParse) {
  // Narrow integer fields reject what they cannot hold instead of
  // truncating it (4294967297 would become 1 as an int).
  const std::string text =
      release::PrintReleaseSpec(release::ReleaseSpec{});
  for (const char* line : {"adjustment.max_iterations 4294967297",
                           "evaluation.queries_per_sigma 4294967296",
                           "adjustment.max_iterations -2147483649",
                           "execution.listen_port 65536"}) {
    auto parsed = release::ParseReleaseSpec(text + line + "\n");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  auto widest = release::ParseReleaseSpec(
      text + "adjustment.max_iterations 2147483647\n");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().adjustment.max_iterations, 2147483647);
}

TEST(ReleaseSpecSerialization, CommentsAndUnknownKeys) {
  release::ReleaseSpec spec;
  std::string text = release::PrintReleaseSpec(spec);
  auto with_comment =
      release::ParseReleaseSpec(text + "\n# trailing comment\n\n");
  ASSERT_TRUE(with_comment.ok());
  EXPECT_TRUE(with_comment.value() == spec);
  EXPECT_FALSE(release::ParseReleaseSpec(text + "no.such.key 1\n").ok());
  EXPECT_FALSE(release::ParseReleaseSpec("not a spec at all").ok());
}

// --- Artifacts serialization round-trips the summary. ---

TEST(ReleaseArtifactsSerialization, SummaryRoundTrips) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.adjustment.enabled = true;
  spec.synthetic.enabled = true;
  spec.evaluation.utility_report = true;
  spec.evaluation.queries_per_sigma = 4;
  spec.evaluation.sigmas = {0.3};
  release::ReleaseArtifacts artifacts = MustRun(spec, data);

  std::string text = release::PrintReleaseArtifacts(artifacts);
  auto parsed = release::ParseReleaseArtifacts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(release::PrintReleaseArtifacts(parsed.value()), text);
  EXPECT_EQ(parsed.value().num_records, artifacts.num_records);
  EXPECT_EQ(parsed.value().marginal_estimates, artifacts.marginal_estimates);
  EXPECT_EQ(parsed.value().clustering, artifacts.clustering);
  EXPECT_EQ(parsed.value().adjustment->weights,
            artifacts.adjustment->weights);
  EXPECT_EQ(parsed.value().utility->marginal_tv,
            artifacts.utility->marginal_tv);
}

// --- Budget cap and estimator builder. ---

TEST(ReleaseApi, BudgetCapFailsClosed) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  spec.budget.max_total_epsilon = 0.5;  // Far below the realized cost.
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok());
  auto artifacts = plan.value().Run();
  ASSERT_FALSE(artifacts.ok());
  EXPECT_EQ(artifacts.status().code(), StatusCode::kFailedPrecondition);
}

// The privacy ledger through the façade, recomputed from each
// mechanism's own matrices rather than read back from its payload, and
// summed in attribute (or cluster) order like the mechanism does.
TEST(ReleaseApi, EpsilonLedgerMatchesMechanismMatrices) {
  Dataset data = TestData();
  auto cardinality = [&data](size_t j) {
    return data.attribute(j).cardinality();
  };
  // RR-Joint over `attrs` at the Section 6.3.2 calibration.
  auto joint_epsilon = [&](const std::vector<size_t>& attrs) {
    size_t domain = 1;
    for (size_t j : attrs) domain *= cardinality(j);
    return RrMatrix::OptimalForEpsilon(domain,
                                       ClusterEpsilonBudget(data, attrs, 0.7))
        .Epsilon();
  };
  auto keep_uniform_epsilon = [&](double keep_probability) {
    double epsilon = 0.0;
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      epsilon += RrMatrix::KeepUniform(cardinality(j), keep_probability)
                     .Epsilon();
    }
    return epsilon;
  };

  for (release::PolicyKind policy :
       {release::PolicyKind::kSequential, release::PolicyKind::kSharded}) {
    for (release::MechanismKind kind :
         {release::MechanismKind::kIndependent,
          release::MechanismKind::kGeometricOrdinal}) {
      release::ReleaseSpec spec = BaseSpec(kind, policy);
      spec.budget.keep_probability = 0.6;
      spec.mechanism.geometric_epsilon = 1.5;
      RrIndependentOptions design{0.6};
      if (kind == release::MechanismKind::kGeometricOrdinal) {
        design.design = IndependentDesign::kGeometricOrdinal;
        design.geometric_epsilon = 1.5;
      }
      double expected = 0.0;
      for (size_t j = 0; j < data.num_attributes(); ++j) {
        expected += MakeIndependentMatrix(cardinality(j), design).Epsilon();
      }
      release::ReleaseArtifacts artifacts = MustRun(spec, data);
      EXPECT_EQ(artifacts.release_epsilon, expected)
          << release::ToString(kind);
      EXPECT_EQ(artifacts.dependence_epsilon, 0.0);
    }

    release::ReleaseSpec joint =
        BaseSpec(release::MechanismKind::kJoint, policy);
    joint.budget.keep_probability = 0.7;
    joint.mechanism.joint_attributes = {kAdultEducation, kAdultSex};
    release::ReleaseArtifacts joint_artifacts = MustRun(joint, data);
    EXPECT_EQ(joint_artifacts.release_epsilon,
              joint_epsilon(joint.mechanism.joint_attributes));
    EXPECT_EQ(joint_artifacts.dependence_epsilon, 0.0);

    release::ReleaseSpec clusters =
        BaseSpec(release::MechanismKind::kClusters, policy);
    clusters.budget.keep_probability = 0.7;
    clusters.budget.dependence_keep_probability = 0.8;
    clusters.mechanism.dependence_source =
        DependenceSource::kRandomizedResponse;
    release::ReleaseArtifacts clusters_artifacts = MustRun(clusters, data);
    double expected = 0.0;
    for (const std::vector<size_t>& cluster : clusters_artifacts.clustering) {
      expected += joint_epsilon(cluster);
    }
    EXPECT_EQ(clusters_artifacts.release_epsilon, expected);
    EXPECT_EQ(clusters_artifacts.dependence_epsilon,
              keep_uniform_epsilon(0.8));

    release::ReleaseSpec pram =
        BaseSpec(release::MechanismKind::kPram, policy);
    pram.budget.keep_probability = 0.8;
    EXPECT_EQ(MustRun(pram, data).release_epsilon, keep_uniform_epsilon(0.8));
  }
}

TEST(ReleaseApi, MakeJointEstimateAnswersQueries) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kClusters,
                                       release::PolicyKind::kSequential);
  spec.adjustment.enabled = true;
  release::ReleaseArtifacts artifacts = MustRun(spec, data);
  auto estimate = release::MakeJointEstimate(artifacts);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  CountQuery everything{{kAdultSex}, {{0}, {1}}};
  EXPECT_NEAR(estimate.value()->EstimateCount(everything),
              static_cast<double>(data.num_rows()),
              0.02 * static_cast<double>(data.num_rows()));
}

TEST(ReleaseApi, RepeatedRunsAreIdentical) {
  Dataset data = TestData();
  release::ReleaseSpec spec = BaseSpec(release::MechanismKind::kIndependent,
                                       release::PolicyKind::kSequential);
  auto plan = release::ReleasePlanner::Plan(spec, &data);
  ASSERT_TRUE(plan.ok());
  auto first = plan.value().Run();
  auto second = plan.value().Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameData(first.value().randomized, second.value().randomized);
  EXPECT_EQ(first.value().marginal_estimates,
            second.value().marginal_estimates);
}

}  // namespace
}  // namespace mdrr
