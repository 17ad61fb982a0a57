// Microbenchmarks of the per-column kernels the release pipeline runs.
//
//   * The two RNG policies' perturbation kernels on one column:
//     RrMatrix::RandomizeRangeInto (mt19937, one sequential stream)
//     against RandomizeRangeCounterInto (philox, one block per element),
//     for a structured design (the paper's keep-or-replace matrices) and
//     a dense one (alias-table lookups), at r in {2, 16, 300}.
//   * The frequency-oracle backends' fused perturb+count kernels,
//     AccumulateRangeCounter for direct, optimized-unary and local-hashing
//     encoding at equal epsilon (the epsilon of KeepUniform(r, 0.7)).
//   * Domain::ComposeColumns, which builds the cluster codes of the
//     party-level session.
//   * Per-party seeding in the session (protocol/PartyBlock): a full
//     mt19937_64 seeded and drawn once per party against the 32-output
//     draw window (FillEnginePrefix) that stands in for it. Both include
//     the lane-batched seed expansion; items are parties.
//
// Items are records unless stated otherwise. The structured-solve vs LU comparison lives in
// bench/ablation_matrix_inverse.cc.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/linalg/matrix.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace {

constexpr size_t kRecords = size_t{1} << 16;
constexpr uint64_t kSeed = 11;

std::vector<uint32_t> UniformCodes(size_t r) {
  mdrr::Rng rng(5);
  std::vector<uint32_t> codes(kRecords);
  for (uint32_t& c : codes) c = static_cast<uint32_t>(rng.UniformInt(r));
  return codes;
}

// Keeps the true code with a probability that grows with it and spreads
// the rest evenly: no uniform-mixture shape, so every draw is an alias
// lookup.
mdrr::RrMatrix DenseDesign(size_t r) {
  mdrr::linalg::Matrix p(r, r, 0.0);
  for (size_t u = 0; u < r; ++u) {
    const double keep =
        0.5 + 0.3 * static_cast<double>(u) / static_cast<double>(r - 1);
    for (size_t v = 0; v < r; ++v) {
      p(u, v) = u == v ? keep : (1.0 - keep) / static_cast<double>(r - 1);
    }
  }
  return mdrr::RrMatrix::FromDense(p).value();
}

mdrr::RrMatrix Design(size_t r, bool structured) {
  return structured ? mdrr::RrMatrix::KeepUniform(r, 0.7) : DenseDesign(r);
}

void RandomizeRange(benchmark::State& state, bool structured, bool philox) {
  const size_t r = static_cast<size_t>(state.range(0));
  const mdrr::RrMatrix matrix = Design(r, structured);
  const std::vector<uint32_t> codes = UniformCodes(r);
  std::vector<uint32_t> out(kRecords);
  std::vector<int64_t> counts(r);
  mdrr::Rng rng(kSeed);
  for (auto _ : state) {
    if (philox) {
      matrix.RandomizeRangeCounterInto(codes, 0, kRecords, kSeed, 0, out.data(),
                                       counts.data());
    } else {
      matrix.RandomizeRangeInto(codes, 0, kRecords, rng, out.data(),
                                counts.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRecords));
}

void BM_RandomizeRangeInto_Structured(benchmark::State& state) {
  RandomizeRange(state, true, false);
}
BENCHMARK(BM_RandomizeRangeInto_Structured)->Arg(2)->Arg(16)->Arg(300);

void BM_RandomizeRangeCounterInto_Structured(benchmark::State& state) {
  RandomizeRange(state, true, true);
}
BENCHMARK(BM_RandomizeRangeCounterInto_Structured)->Arg(2)->Arg(16)->Arg(300);

void BM_RandomizeRangeInto_Dense(benchmark::State& state) {
  RandomizeRange(state, false, false);
}
BENCHMARK(BM_RandomizeRangeInto_Dense)->Arg(2)->Arg(16)->Arg(300);

void BM_RandomizeRangeCounterInto_Dense(benchmark::State& state) {
  RandomizeRange(state, false, true);
}
BENCHMARK(BM_RandomizeRangeCounterInto_Dense)->Arg(2)->Arg(16)->Arg(300);

void AccumulateRangeCounter(benchmark::State& state,
                            mdrr::OracleBackend backend) {
  const size_t r = static_cast<size_t>(state.range(0));
  const double epsilon = mdrr::RrMatrix::KeepUniform(r, 0.7).Epsilon();
  const auto oracle = mdrr::MakeFrequencyOracle(backend, r, epsilon).value();
  const std::vector<uint32_t> codes = UniformCodes(r);
  std::vector<int64_t> counts(r);
  for (auto _ : state) {
    oracle->AccumulateRangeCounter(codes, 0, kRecords, kSeed, 0, nullptr,
                                   counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRecords));
}

void BM_AccumulateRangeCounter_DE(benchmark::State& state) {
  AccumulateRangeCounter(state, mdrr::OracleBackend::kDirect);
}
BENCHMARK(BM_AccumulateRangeCounter_DE)->Arg(2)->Arg(16)->Arg(300);

void BM_AccumulateRangeCounter_OUE(benchmark::State& state) {
  AccumulateRangeCounter(state, mdrr::OracleBackend::kOptimizedUnary);
}
BENCHMARK(BM_AccumulateRangeCounter_OUE)->Arg(2)->Arg(16)->Arg(300);

void BM_AccumulateRangeCounter_OLH(benchmark::State& state) {
  AccumulateRangeCounter(state, mdrr::OracleBackend::kLocalHashing);
}
BENCHMARK(BM_AccumulateRangeCounter_OLH)->Arg(2)->Arg(16)->Arg(300);

void BM_DomainCompose(benchmark::State& state) {
  mdrr::Dataset adult = mdrr::SynthesizeAdult(32561, 3);
  std::vector<size_t> attrs = {mdrr::kAdultMaritalStatus,
                               mdrr::kAdultRelationship, mdrr::kAdultSex};
  mdrr::Domain domain = mdrr::Domain::ForAttributes(adult, attrs);
  for (auto _ : state) {
    auto composite = domain.ComposeColumns(adult, attrs);
    benchmark::DoNotOptimize(composite);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32561);
}
BENCHMARK(BM_DomainCompose);

constexpr size_t kParties = 4096;

std::vector<uint64_t> PartySeeds() {
  mdrr::Rng seeder(kSeed);
  std::vector<uint64_t> seeds(kParties);
  for (uint64_t& s : seeds) s = seeder.engine()();
  return seeds;
}

void BM_PartySeed_Engine(benchmark::State& state) {
  const std::vector<uint64_t> seeds = PartySeeds();
  std::vector<mdrr::Rng> engines(kParties, mdrr::Rng(0));
  for (auto _ : state) {
    uint64_t first = 0;
    mdrr::ForEachSeedSequence(
        seeds.data(), seeds.size(), [&](size_t i, const uint32_t* words) {
          mdrr::ReplaySeedSeq replay(words, mdrr::kEngineSeedWords);
          engines[i].engine().seed(replay);
          first ^= engines[i].engine()();
        });
    benchmark::DoNotOptimize(first);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kParties));
}
BENCHMARK(BM_PartySeed_Engine);

void BM_PartySeed_Prefix(benchmark::State& state) {
  constexpr size_t kWindow = 32;  // 4 draws x 8 attributes, as on Adult.
  const std::vector<uint64_t> seeds = PartySeeds();
  std::vector<uint64_t> windows(kParties * kWindow);
  for (auto _ : state) {
    mdrr::ForEachSeedSequence(
        seeds.data(), seeds.size(), [&](size_t i, const uint32_t* words) {
          mdrr::FillEnginePrefix(words, kWindow, windows.data() + i * kWindow);
        });
    benchmark::DoNotOptimize(windows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kParties));
}
BENCHMARK(BM_PartySeed_Prefix);

}  // namespace

BENCHMARK_MAIN();
