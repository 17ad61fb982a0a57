#include "mdrr/rng/fast_seed.h"

#include <algorithm>
#include <type_traits>

#include "mdrr/common/check.h"

namespace mdrr {

namespace {

// Parameters of [rand.util.seedseq] generate() for an n = 624 request
// with s = 4 entropy words: t = 11, p = 306, q = 317, m = max(s+1, n).
constexpr size_t kN = kEngineSeedWords;
constexpr size_t kP = 306;
constexpr size_t kQ = 317;

inline uint32_t Mix(uint32_t x) { return x ^ (x >> 27); }

// The 624-word expansion of L entropy sets at once: entropy[w * L + l] is
// word w of lane l, out[l * kN + i] word i of lane l's expansion.
// Lane-major SoA work set: b[i][l] is word i of lane l. Every step below
// is an elementwise loop over L lanes with no cross-lane data flow, which
// the compiler turns into vector ops; the recurrence's serial dependency
// chains (one per lane) run side by side. L = 1 is the scalar expansion.
template <size_t L>
void ExpandLanes(const uint32_t* entropy, uint32_t* out) {
  alignas(64) uint32_t b[kN][L];
  alignas(64) uint32_t prev[L];
  for (size_t i = 0; i < kN; ++i) {
    for (size_t l = 0; l < L; ++l) b[i][l] = 0x8b8b8b8bu;
  }
  // b[(k-1) % n] is always the previous iteration's r2 / r4 (no other
  // write can land on it in between: k+p and k+q are never congruent to
  // k-1 mod n), so it rides in `prev` instead of a load.
  for (size_t l = 0; l < L; ++l) prev[l] = 0x8b8b8b8bu;

  // First pass: b[k+p] += r1, b[k+q] += r2, b[k] = r2, split at the
  // entropy-carrying head k <= 4 and at the two wrap boundaries so the
  // loops are branch-free.
  auto pass1 = [&](size_t k, size_t kp, size_t kq, auto head) {
    for (size_t l = 0; l < L; ++l) {
      uint32_t x = b[k][l] ^ b[kp][l] ^ prev[l];
      uint32_t r1 = 1664525u * Mix(x);
      uint32_t r2 = r1 + static_cast<uint32_t>(k);
      if constexpr (decltype(head)::value) {
        r2 += k == 0 ? 4u : entropy[(k - 1) * L + l];
      }
      b[kp][l] += r1;
      b[kq][l] += r2;
      b[k][l] = r2;
      prev[l] = r2;
    }
  };
  for (size_t k = 0; k <= 4; ++k) pass1(k, k + kP, k + kQ, std::true_type{});
  for (size_t k = 5; k < kN - kQ; ++k) {
    pass1(k, k + kP, k + kQ, std::false_type{});
  }
  for (size_t k = kN - kQ; k < kN - kP; ++k) {
    pass1(k, k + kP, k + kQ - kN, std::false_type{});
  }
  for (size_t k = kN - kP; k < kN; ++k) {
    pass1(k, k + kP - kN, k + kQ - kN, std::false_type{});
  }

  // Second pass: b[k+p] ^= r3, b[k+q] ^= r4, b[k] = r4, with k counting
  // m..m+n-1 in standard terms (k mod n here). `prev` hands over from the
  // first pass: b[n-1] was last assigned at first-pass k = n-1.
  auto pass2 = [&](size_t k, size_t kp, size_t kq) {
    for (size_t l = 0; l < L; ++l) {
      uint32_t x = b[k][l] + b[kp][l] + prev[l];
      uint32_t r3 = 1566083941u * Mix(x);
      uint32_t r4 = r3 - static_cast<uint32_t>(k);
      b[kp][l] ^= r3;
      b[kq][l] ^= r4;
      b[k][l] = r4;
      prev[l] = r4;
    }
  };
  for (size_t k = 0; k < kN - kQ; ++k) pass2(k, k + kP, k + kQ);
  for (size_t k = kN - kQ; k < kN - kP; ++k) pass2(k, k + kP, k + kQ - kN);
  for (size_t k = kN - kP; k < kN; ++k) pass2(k, k + kP - kN, k + kQ - kN);

  for (size_t i = 0; i < kN; ++i) {
    for (size_t l = 0; l < L; ++l) out[l * kN + i] = b[i][l];
  }
}

}  // namespace

FourWordSeedSeq::FourWordSeedSeq(uint64_t seed) {
  uint64_t state = seed;
  // Braced seed_seq construction evaluates left to right; keep that order.
  for (uint32_t& word : entropy_) {
    word = static_cast<uint32_t>(SplitMix64Next(state));
  }
}

void FourWordSeedSeq::GenerateEngineWords(
    uint32_t out[kEngineSeedWords]) const {
  ExpandLanes<1>(entropy_, out);
}

void GenerateSeedBlock(const uint64_t seeds[kSeedLanes], uint32_t* out) {
  uint32_t entropy[4 * kSeedLanes];
  for (size_t l = 0; l < kSeedLanes; ++l) {
    uint64_t state = seeds[l];
    for (size_t w = 0; w < 4; ++w) {
      entropy[w * kSeedLanes + l] = static_cast<uint32_t>(SplitMix64Next(state));
    }
  }
  ExpandLanes<kSeedLanes>(entropy, out);
}

void FillEnginePrefix(const uint32_t words[kEngineSeedWords], size_t count,
                      uint64_t* out) {
  using Engine = std::mt19937_64;
  constexpr size_t kShift = Engine::shift_size;
  constexpr uint64_t kUpper = ~uint64_t{0} << Engine::mask_bits;
  MDRR_DCHECK_LE(count, kEngineStateWords);
  auto state = [words](size_t i) {
    return uint64_t{words[2 * i]} | uint64_t{words[2 * i + 1]} << 32;
  };
  // Engine::seed: a state whose word 0 has no bit above mask_bits and
  // whose other words are all zero becomes x[0] = 2^63.
  const bool zero =
      (state(0) & kUpper) == 0 &&
      std::all_of(words + 2, words + kEngineSeedWords,
                  [](uint32_t w) { return w == 0; });
  const uint64_t x0 = zero ? uint64_t{1} << 63 : state(0);
  // The first twist, untempered: word k reads old words k and k + 1 and
  // old word k + shift, or new word k - shift from shift on; the last
  // word reads new word 0 in place of old word k + 1.
  for (size_t k = 0; k < count; ++k) {
    const uint64_t y =
        ((k == 0 ? x0 : state(k)) & kUpper) |
        ((k + 1 < kEngineStateWords ? state(k + 1) : out[0]) & ~kUpper);
    out[k] = (k < kShift ? state(k + kShift) : out[k - kShift]) ^ (y >> 1) ^
             ((y & 1) != 0 ? Engine::xor_mask : 0);
  }
  for (size_t k = 0; k < count; ++k) {
    uint64_t z = out[k];
    z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
    z ^= (z << Engine::tempering_s) & Engine::tempering_b;
    z ^= (z << Engine::tempering_t) & Engine::tempering_c;
    out[k] = z ^ (z >> Engine::tempering_l);
  }
}

void EnginePrefixDraws::Refill() {
  start_ += size_;
  pos_ = 0;
  Rng rng(seed_);
  rng.engine().discard(start_);
  for (size_t i = 0; i < size_; ++i) window_[i] = rng.engine()();
}

}  // namespace mdrr
