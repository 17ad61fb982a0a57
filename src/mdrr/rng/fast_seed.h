// Fast, bit-exact mt19937_64 seeding.
//
// Rng(seed) has always meant "mt19937_64 seeded from
// std::seed_seq{SplitMix64 x 4}", and every transcript the library
// publishes inherits that contract, so seeding cannot change behavior --
// but it can change cost. The [rand.util.seedseq] generate() algorithm is
// specified exactly by the standard, which makes two optimizations legal:
//
//   * FourWordSeedSeq runs the standard recurrence with the previous
//     word carried in a register and each pass split at its two wrap
//     boundaries, so the hot loops are branch-free and allocation-free.
//   * GenerateSeedBlock runs kSeedLanes independent seed expansions at
//     once in lane-major layout; the recurrence has no data-dependent
//     control flow, so every step is an elementwise op over kSeedLanes
//     words that the compiler vectorizes, and the per-seed dependency
//     chains overlap. Per-engine seeding drops several-fold.
//
// A party of the protocol session draws only a few dozen outputs, so
// protocol/PartyBlock keeps no engine at all: FillEnginePrefix computes
// the first outputs straight from the seed words, and EnginePrefixDraws
// serves them (refilling from a real Rng past the stored window).
//
// Every path is golden-tested against std::seed_seq and std::mt19937_64
// in tests/session_fast_path_test.cc; any divergence is a test failure,
// not a silent transcript change.

#ifndef MDRR_RNG_FAST_SEED_H_
#define MDRR_RNG_FAST_SEED_H_

#include <cstddef>
#include <cstdint>
#include <random>

#include "mdrr/rng/rng.h"

namespace mdrr {

// The number of 32-bit words an mt19937_64 requests when seeded from a
// seed sequence (312 state words x 2 words each).
inline constexpr size_t kEngineSeedWords = 624;

// Engines seeded per GenerateSeedBlock call.
inline constexpr size_t kSeedLanes = 8;

// Drop-in replacement for the library's historical engine seeding
// sequence std::seed_seq{SplitMix64Next(s) x 4}: generate() output is
// bit-identical for every request length, by the exactness of the
// [rand.util.seedseq] specification.
class FourWordSeedSeq {
 public:
  // Expands `seed` through SplitMix64 into the four entropy words, the
  // same expansion Rng(seed) has always used. (std::seed_seq stores its
  // inputs mod 2^32, hence the uint32_t entropy.)
  explicit FourWordSeedSeq(uint64_t seed);

  using result_type = uint32_t;
  size_t size() const { return 4; }

  template <typename It>
  void generate(It begin, It end) {
    if (end - begin == static_cast<ptrdiff_t>(kEngineSeedWords)) {
      uint32_t buffer[kEngineSeedWords];
      GenerateEngineWords(buffer);
      for (size_t i = 0; i < kEngineSeedWords; ++i, ++begin) {
        *begin = buffer[i];
      }
      return;
    }
    GenerateGeneric(begin, end);
  }

  // The specialized 624-word expansion (the mt19937_64 request).
  void GenerateEngineWords(uint32_t out[kEngineSeedWords]) const;

 private:
  // Any other request length is off the hot path (an mt19937_64 always
  // asks for 624 words), so delegate to std::seed_seq itself -- correct
  // by construction for hypothetical non-mt19937_64 consumers.
  template <typename It>
  void GenerateGeneric(It begin, It end) const {
    std::seed_seq seq(entropy_, entropy_ + 4);
    seq.generate(begin, end);
  }

  uint32_t entropy_[4];
};

// Runs kSeedLanes FourWordSeedSeq 624-word expansions at once.
// out[l * kEngineSeedWords + i] is word i of the expansion of seeds[l]
// (lane-major, so each lane's words are contiguous for replay).
void GenerateSeedBlock(const uint64_t seeds[kSeedLanes], uint32_t* out);

// Seed-sequence adapter replaying one precomputed word block into an
// engine's seed request. Requests beyond `count` words are filled with
// zeros (an mt19937_64 requests exactly kEngineSeedWords).
class ReplaySeedSeq {
 public:
  ReplaySeedSeq(const uint32_t* words, size_t count)
      : words_(words), count_(count) {}

  using result_type = uint32_t;
  size_t size() const { return count_; }

  template <typename It>
  void generate(It begin, It end) {
    size_t i = 0;
    for (; begin != end && i < count_; ++begin, ++i) *begin = words_[i];
    for (; begin != end; ++begin) *begin = 0;
  }

 private:
  const uint32_t* words_;
  size_t count_;
};

// The one lane-batching walk over a seed range: invokes fn(index, words)
// for every i in [0, count), where words[0, kEngineSeedWords) is the
// std::seed_seq{SplitMix64 x 4} expansion of seeds[index] -- the words
// Rng(seeds[index]) seeds its engine from. kSeedLanes seeds at a time go
// through GenerateSeedBlock and any tail through FourWordSeedSeq; either
// way each block is a pure function of its own seed, so disjoint ranges
// can be walked concurrently with any grouping.
template <typename Fn>
void ForEachSeedSequence(const uint64_t* seeds, size_t count, Fn&& fn) {
  size_t i = 0;
  uint32_t block[kSeedLanes * kEngineSeedWords];
  for (; i + kSeedLanes <= count; i += kSeedLanes) {
    GenerateSeedBlock(seeds + i, block);
    for (size_t l = 0; l < kSeedLanes; ++l) {
      fn(i + l, block + l * kEngineSeedWords);
    }
  }
  for (; i < count; ++i) {
    FourWordSeedSeq(seeds[i]).GenerateEngineWords(block);
    fn(i, block);
  }
}

// The mt19937_64 state size: its first twist yields this many outputs.
inline constexpr size_t kEngineStateWords = kEngineSeedWords / 2;

// Writes the first `count` outputs (count <= kEngineStateWords) of the
// mt19937_64 seeded from `words` -- std::mt19937_64 over
// ReplaySeedSeq(words, kEngineSeedWords) -- to out[0, count) without
// building the 2.5 KB engine: only the first-twist words those outputs
// read are computed, after libstdc++'s all-zero-state fix-up.
void FillEnginePrefix(const uint32_t words[kEngineSeedWords], size_t count,
                      uint64_t* out);

// A draw source over a stored window of Rng(seed)'s outputs, so a party
// keeps only the few outputs its protocol consumes instead of an engine.
// Draws are bit-identical to Rng(seed)'s after the same history.
class EnginePrefixDraws : public UniformDraws<EnginePrefixDraws> {
 public:
  // Continues Rng(seed) after its first `consumed` outputs. window[0,
  // size) must hold outputs [start, start + size), where start is the
  // largest multiple of `size` below `consumed` (0 when consumed is 0);
  // a draw past the window refills it with the next `size` outputs.
  EnginePrefixDraws(uint64_t seed, uint64_t* window, size_t size,
                    uint32_t consumed)
      : seed_(seed),
        window_(window),
        size_(size),
        pos_(consumed == 0 ? 0 : (consumed - 1) % size + 1),
        start_(consumed - pos_) {}

  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() {
    if (pos_ == size_) Refill();
    return window_[pos_++];
  }

  EnginePrefixDraws& engine() { return *this; }

  // Outputs of Rng(seed) consumed so far.
  uint32_t consumed() const { return static_cast<uint32_t>(start_ + pos_); }

 private:
  void Refill();

  uint64_t seed_;
  uint64_t* window_;
  size_t size_;
  size_t pos_;
  uint64_t start_;
};

}  // namespace mdrr

#endif  // MDRR_RNG_FAST_SEED_H_
