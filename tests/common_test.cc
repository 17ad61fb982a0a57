#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/common/flags.h"
#include "mdrr/common/parallel.h"
#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/common/string_util.h"

namespace mdrr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

StatusOr<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> Doubled(int value) {
  MDRR_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Doubled(21).ok());
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  std::vector<std::string> parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseInt64) {
  ASSERT_TRUE(ParseInt64("42").ok());
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -17 ").value(), -17);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("3.5").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 0.001);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--runs=100", "--sigma=0.25", "--verbose",
                        "positional", "--name=test"};
  FlagSet flags;
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("runs", 1), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sigma", 0.0), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_FALSE(flags.Has("positional"));
}

TEST(FlagsTest, DefaultsAndMalformedValues) {
  const char* argv[] = {"prog", "--runs=abc"};
  FlagSet flags;
  flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("runs", 7), 7);       // Malformed -> default.
  EXPECT_EQ(flags.GetInt("missing", 9), 9);    // Missing -> default.
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagsTest, MalformedPrivacyFlagIsRecorded) {
  // `--p=O.9` (letter O) must not pass silently as the default 0.7.
  const char* argv[] = {"prog", "--p=O.9", "--seed=3", "--runs=abc"};
  FlagSet flags;
  flags.Parse(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.status().ok());  // Nothing read yet.
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.7), 0.7);
  EXPECT_EQ(flags.GetInt("seed", 1), 3);
  EXPECT_EQ(flags.malformed(), std::set<std::string>{"p"});
  Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--p='O.9'"), std::string::npos);
  EXPECT_EQ(flags.GetInt("runs", 7), 7);
  EXPECT_EQ(flags.malformed(), (std::set<std::string>{"p", "runs"}));
}

TEST(FlagsTest, OutOfRangeIntIsRecorded) {
  // A negative count must not wrap into a huge size_t, and a value past
  // the target type must not truncate (4294967297 -> 1 as an int).
  const char* argv[] = {"prog", "--shards=-1", "--iters=4294967297",
                        "--port=65535", "--threads=0", "--seed=-3"};
  FlagSet flags;
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("shards", 1, 1), 1);
  EXPECT_EQ(flags.GetInt("iters", 100, 1, std::numeric_limits<int>::max()),
            100);
  EXPECT_EQ(flags.GetInt("port", 0, 0, 65535), 65535);  // Bounds inclusive.
  EXPECT_EQ(flags.GetInt("threads", 4, 0), 0);
  EXPECT_EQ(flags.GetInt("seed", 1), -3);  // Default range: all of int64.
  EXPECT_EQ(flags.malformed(), (std::set<std::string>{"iters", "shards"}));
  Status status = flags.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--shards='-1'"), std::string::npos);
  EXPECT_NE(status.message().find("--iters='4294967297'"), std::string::npos);
}

TEST(FlagsTest, UnknownFlagNameIsReported) {
  // `--thraeds=4` must not quietly run the sequential policy.
  const char* typo[] = {"prog", "--thraeds=4", "--seed=3"};
  FlagSet misspelt;
  misspelt.Parse(3, const_cast<char**>(typo));
  EXPECT_EQ(misspelt.GetInt("threads", 0), 0);
  EXPECT_EQ(misspelt.GetInt("seed", 1), 3);
  Status status = misspelt.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--thraeds"), std::string::npos);
  EXPECT_EQ(status.message().find("--seed"), std::string::npos);

  const char* known[] = {"prog", "--threads=4", "--seed=3"};
  FlagSet flags;
  flags.Parse(3, const_cast<char**>(known));
  EXPECT_TRUE(flags.Has("threads"));
  EXPECT_EQ(flags.GetInt("threads", 0), 4);
  EXPECT_EQ(flags.GetInt("seed", 1), 3);
  EXPECT_TRUE(flags.status().ok()) << flags.status().ToString();
}

TEST(ParallelChunksTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1003;
  std::vector<std::atomic<int>> touched(n);
  for (auto& t : touched) t = 0;
  ParallelChunks(n, 64, 4,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) ++touched[i];
                 });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelChunksTest, ChunkDecompositionIsIndependentOfWorkerCount) {
  const size_t n = 500;
  const size_t chunk_size = 33;
  for (size_t threads : {1u, 2u, 7u, 0u}) {
    std::mutex mu;
    std::set<std::vector<size_t>> chunks;
    ParallelChunks(n, chunk_size, threads,
                   [&](size_t /*worker*/, size_t chunk, size_t begin,
                       size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.insert({chunk, begin, end});
                   });
    EXPECT_EQ(chunks.size(), NumChunks(n, chunk_size));
    for (const auto& c : chunks) {
      EXPECT_EQ(c[1], c[0] * chunk_size);
      EXPECT_EQ(c[2], std::min(n, c[1] + chunk_size));
    }
  }
}

TEST(ParallelChunksTest, EmptyRangeAndWorkerClamping) {
  // n = 0 still makes one (empty) chunk; workers are clamped to chunks.
  EXPECT_EQ(NumChunks(0, 10), 1u);
  EXPECT_EQ(ResolveWorkerCount(16, 5, 10), 1u);
  EXPECT_GE(ResolveWorkerCount(0, 1000, 10), 1u);
  int calls = 0;
  ParallelChunks(0, 10, 8,
                 [&](size_t, size_t, size_t begin, size_t end) {
                   ++calls;
                   EXPECT_EQ(begin, end);
                 });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace mdrr
