// Unit suite for the net/ wire layer: explicit little-endian framing
// goldens (the format is a cross-host contract, not whatever the
// compiler does), bounds-checked reader behavior, and exact round trips
// for every payload codec and protocol message.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/net/frame.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/wire.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace net {
namespace {

// --- Framing primitives ---

TEST(WireWriterTest, LittleEndianGoldens) {
  WireWriter writer;
  writer.U8(0xAB);
  writer.U32(0x11223344u);
  writer.U64(0x0102030405060708ull);
  const std::vector<uint8_t> expected = {
      0xAB,                                            // u8
      0x44, 0x33, 0x22, 0x11,                          // u32 LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 LE
  };
  EXPECT_EQ(writer.buffer(), expected);
}

TEST(WireWriterTest, DoubleTravelsAsIeee754Bits) {
  WireWriter writer;
  writer.F64(1.5);  // 0x3FF8000000000000
  const std::vector<uint8_t> expected = {0x00, 0x00, 0x00, 0x00,
                                         0x00, 0x00, 0xF8, 0x3F};
  EXPECT_EQ(writer.buffer(), expected);
}

TEST(WireReaderTest, RoundTripsEveryPrimitive) {
  WireWriter writer;
  writer.U8(7);
  writer.U32(0xDEADBEEFu);
  writer.U64(1ull << 60);
  writer.I64(-42);
  writer.F64(-0.125);
  writer.String("hello");
  std::vector<uint8_t> bytes = writer.Release();

  WireReader reader(bytes);
  EXPECT_EQ(reader.U8().value(), 7);
  EXPECT_EQ(reader.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64().value(), 1ull << 60);
  EXPECT_EQ(reader.I64().value(), -42);
  EXPECT_EQ(reader.F64().value(), -0.125);
  EXPECT_EQ(reader.String().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireReaderTest, EveryGetterFailsOnTruncation) {
  std::vector<uint8_t> three = {1, 2, 3};
  EXPECT_FALSE(WireReader(three).U32().ok());
  EXPECT_FALSE(WireReader(three).U64().ok());
  EXPECT_FALSE(WireReader(three).F64().ok());
  EXPECT_FALSE(WireReader(three).String().ok());  // claims from garbage len
  EXPECT_FALSE(WireReader(three).Skip(4).ok());
  WireReader empty(nullptr, 0);
  EXPECT_FALSE(empty.U8().ok());
}

TEST(WireReaderTest, StringRejectsLengthBeyondBuffer) {
  WireWriter writer;
  writer.U32(1000);  // claims 1000 body bytes...
  writer.U8('x');    // ...delivers one
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  EXPECT_FALSE(reader.String().ok());
}

// --- Matrix codec ---

TEST(MatrixCodecTest, StructuredMatrixRoundTripsStructured) {
  RrMatrix matrix = RrMatrix::KeepUniform(5, 0.7);
  ASSERT_TRUE(matrix.structured().has_value());
  WireWriter writer;
  EncodeMatrix(matrix, writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeMatrix(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded.value().structured().has_value());
  ASSERT_EQ(decoded.value().size(), matrix.size());
  for (size_t u = 0; u < matrix.size(); ++u) {
    for (size_t v = 0; v < matrix.size(); ++v) {
      EXPECT_EQ(decoded.value().Prob(v, u), matrix.Prob(v, u));
    }
  }
  // The determinism contract is on draws, not just probabilities.
  for (uint64_t element = 0; element < 64; ++element) {
    EXPECT_EQ(decoded.value().RandomizeCounter(element % 5, 99, 3, element),
              matrix.RandomizeCounter(element % 5, 99, 3, element));
  }
}

TEST(MatrixCodecTest, DenseMatrixRoundTripsDense) {
  // Asymmetric rows: uniform-mixture detection must reject this both at
  // the source and after decode.
  const double rows[3][3] = {
      {0.8, 0.1, 0.1}, {0.2, 0.7, 0.1}, {0.3, 0.3, 0.4}};
  linalg::Matrix p(3, 3);
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 3; ++v) p(u, v) = rows[u][v];
  }
  auto matrix = RrMatrix::FromDense(p);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  ASSERT_FALSE(matrix.value().structured().has_value());
  WireWriter writer;
  EncodeMatrix(matrix.value(), writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeMatrix(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().structured().has_value());
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 3; ++v) {
      EXPECT_EQ(decoded.value().Prob(v, u), matrix.value().Prob(v, u));
    }
  }
  for (uint64_t element = 0; element < 64; ++element) {
    EXPECT_EQ(decoded.value().RandomizeCounter(element % 3, 7, 1, element),
              matrix.value().RandomizeCounter(element % 3, 7, 1, element));
  }
}

TEST(MatrixCodecTest, FromStructuredRejectsNonStochasticRows) {
  linalg::UniformMixture bad;
  bad.size = 4;
  bad.diagonal = 0.9;
  bad.off_diagonal = 0.2;  // row sum 1.5
  EXPECT_FALSE(RrMatrix::FromStructured(bad).ok());
}

// --- Count / code / frequency codecs ---

TEST(CountCodecTest, CountsRoundTripIncludingNegatives) {
  std::vector<int64_t> counts = {0, 17, -3, 1ll << 40};
  WireWriter writer;
  EncodeCounts(counts, writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeCounts(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), counts);
}

TEST(CountCodecTest, CodesRoundTrip) {
  std::vector<uint32_t> codes = {5, 0, 4294967295u, 2};
  WireWriter writer;
  ASSERT_TRUE(
      EncodeCodes(codes.data(), codes.size(), uint64_t{1} << 32, writer)
          .ok());
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeCodes(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().width, 4);
  std::vector<uint32_t> widened(decoded.value().length);
  ASSERT_TRUE(decoded.value().WidenInto(uint64_t{1} << 32, widened.data())
                  .ok());
  EXPECT_EQ(widened, codes);
  EXPECT_TRUE(reader.AtEnd());
}

// The width is the narrowest that holds every code below the bound; the
// boundaries r = 256 / 257 and 65536 / 65537 are where it changes.
TEST(CodeCodecTest, RoundTripsAtEveryWidthBoundary) {
  const struct {
    uint64_t r;
    uint8_t width;
  } cases[] = {{256, 1}, {257, 2}, {65536, 2}, {65537, 4}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "r = " << c.r);
    EXPECT_EQ(CodeWidth(c.r), c.width);
    const uint32_t top = static_cast<uint32_t>(c.r - 1);
    std::vector<uint32_t> codes = {0, top, top / 2, 1, top - 1, 255, top};
    WireWriter writer;
    ASSERT_TRUE(EncodeCodes(codes.data(), codes.size(), c.r, writer).ok());
    std::vector<uint8_t> bytes = writer.Release();
    EXPECT_EQ(bytes.size(), 9 + codes.size() * c.width);
    EXPECT_EQ(bytes[0], c.width);
    WireReader reader(bytes);
    auto decoded = DecodeCodes(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
    std::vector<uint32_t> widened(decoded.value().length);
    ASSERT_TRUE(decoded.value().WidenInto(c.r, widened.data()).ok());
    EXPECT_EQ(widened, codes);
  }
}

TEST(CodeCodecTest, CodesAreLittleEndianAtEveryWidth) {
  const std::vector<uint32_t> codes = {0x0102, 0x0304};
  WireWriter u16;
  ASSERT_TRUE(EncodeCodes(codes.data(), codes.size(), 1000, u16).ok());
  const std::vector<uint8_t> expected_u16 = {
      2, 2, 0, 0, 0, 0, 0, 0, 0,  // width 2, length 2
      0x02, 0x01, 0x04, 0x03};
  EXPECT_EQ(u16.buffer(), expected_u16);
  WireWriter u32;
  ASSERT_TRUE(EncodeCodes(codes.data(), 1, 70000, u32).ok());
  const std::vector<uint8_t> expected_u32 = {4, 1, 0, 0, 0, 0, 0, 0, 0,
                                             0x02, 0x01, 0x00, 0x00};
  EXPECT_EQ(u32.buffer(), expected_u32);
}

TEST(CodeCodecTest, DecodeRejectsWidthTagsOtherThan124) {
  for (int tag : {0, 3, 5, 8, 255}) {
    SCOPED_TRACE(testing::Message() << "tag " << tag);
    WireWriter writer;
    writer.U8(static_cast<uint8_t>(tag));
    writer.U64(1);
    writer.U64(0);  // enough bytes for one code at any width
    std::vector<uint8_t> bytes = writer.Release();
    WireReader reader(bytes);
    auto decoded = DecodeCodes(reader);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// At each width, a column claiming one code more than the bytes present
// (or 2^62 codes) fails at the length check, before anything could be
// allocated for it; the exact claim decodes.
TEST(CodeCodecTest, LengthBeyondRemainingFailsAtEveryWidth) {
  for (uint8_t width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "width " << int{width});
    for (uint64_t claim : {uint64_t{4}, uint64_t{1} << 62}) {
      WireWriter writer;
      writer.U8(width);
      writer.U64(claim);
      for (size_t b = 0; b < 3u * width; ++b) writer.U8(0);  // 3 codes
      std::vector<uint8_t> bytes = writer.Release();
      WireReader reader(bytes);
      auto decoded = DecodeCodes(reader);
      ASSERT_FALSE(decoded.ok());
      EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
    }
    WireWriter exact;
    exact.U8(width);
    exact.U64(3);
    for (size_t b = 0; b < 3u * width; ++b) exact.U8(0);
    std::vector<uint8_t> bytes = exact.Release();
    WireReader reader(bytes);
    auto decoded = DecodeCodes(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().length, 3u);
    EXPECT_TRUE(reader.AtEnd());
  }
}

// Narrowing never wraps silently: 65537 under r = 300 would travel as
// the u16 1, and 300 as a valid-looking u16.
TEST(CodeCodecTest, CodesAtOrAboveTheBoundFailOnBothSides) {
  for (uint32_t bad : {300u, 65537u}) {
    const std::vector<uint32_t> codes = {0, bad, 7};
    WireWriter writer;
    Status encoded = EncodeCodes(codes.data(), codes.size(), 300, writer);
    EXPECT_EQ(encoded.code(), StatusCode::kInvalidArgument) << bad;
  }
  const std::vector<uint32_t> codes = {0, 299, 7};
  WireWriter writer;
  ASSERT_TRUE(EncodeCodes(codes.data(), codes.size(), 300, writer).ok());
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeCodes(reader);
  ASSERT_TRUE(decoded.ok());
  std::vector<uint32_t> out(3);
  EXPECT_EQ(decoded.value().WidenInto(299, out.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoded.value().WidenInto(300, out.data()).ok());
}

// --- Protocol messages ---

// A 3-category assignment built by hand, so a code the encoder would
// refuse (3) can still be put on the wire.
std::vector<uint8_t> RawAssignShards(const std::vector<uint8_t>& codes) {
  WireWriter w;
  w.U64(1);  // task_id
  w.U8(0);   // rng_kind
  w.U64(2);  // seed
  w.U64(0);  // stream_base
  w.U64(0);  // counter_stream
  EncodeMatrix(RrMatrix::KeepUniform(3, 0.6), w);
  w.U64(1);  // one shard
  w.U64(0);  // shard_index
  w.U64(0);  // global_begin
  w.U8(1);   // width
  w.U64(codes.size());
  w.Bytes(codes.data(), codes.size());
  return w.Release();
}

TEST(ProtocolCodecTest, AssignShardsRoundTrips) {
  AssignShardsMsg msg;
  msg.task_id = 42;
  msg.rng_kind = 1;
  msg.seed = 1234;
  msg.stream_base = 77;
  msg.counter_stream = 3;
  msg.matrix = RrMatrix::KeepUniform(3, 0.6);
  const std::vector<uint32_t> column = {0, 1, 2, 1, 0, 0, 0, 0, 2, 2};
  msg.shards.push_back({0, 0, 4});
  msg.shards.push_back({2, 8, 2});
  auto payload = EncodeAssignShards(msg, column.data());
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto parsed = ParseAssignShards(payload.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().task_id, 42u);
  EXPECT_EQ(parsed.value().rng_kind, 1);
  EXPECT_EQ(parsed.value().seed, 1234u);
  EXPECT_EQ(parsed.value().stream_base, 77u);
  EXPECT_EQ(parsed.value().counter_stream, 3u);
  ASSERT_TRUE(parsed.value().matrix.has_value());
  EXPECT_EQ(parsed.value().matrix->size(), 3u);
  ASSERT_EQ(parsed.value().shards.size(), 2u);
  EXPECT_EQ(parsed.value().shards[0].shard_index, 0u);
  EXPECT_EQ(parsed.value().shards[0].length, 4u);
  EXPECT_EQ(parsed.value().shards[1].shard_index, 2u);
  EXPECT_EQ(parsed.value().shards[1].global_begin, 8u);
  EXPECT_EQ(parsed.value().shards[1].length, 2u);
  EXPECT_EQ(parsed.value().codes,
            (std::vector<uint32_t>{0, 1, 2, 1, 2, 2}));
}

TEST(ProtocolCodecTest, AssignShardsRejectsCodesOutsideTheMatrix) {
  // The encoder refuses the code while narrowing it...
  AssignShardsMsg msg;
  msg.matrix = RrMatrix::KeepUniform(3, 0.6);
  msg.shards.push_back({0, 0, 3});
  const std::vector<uint32_t> column = {0, 1, 3};  // 3 >= size 3
  auto payload = EncodeAssignShards(msg, column.data());
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kInvalidArgument);
  // ...and the parser refuses it when a peer sends it anyway.
  ASSERT_TRUE(ParseAssignShards(RawAssignShards({0, 1, 2})).ok());
  auto parsed = ParseAssignShards(RawAssignShards({0, 1, 3}));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolCodecTest, PartialResultRoundTrips) {
  AssignShardsMsg sent;
  sent.task_id = 9;
  sent.matrix = RrMatrix::KeepUniform(5, 0.6);
  sent.shards.push_back({1, 4, 3});
  sent.shards.push_back({3, 12, 2});

  PartialResultMsg msg;
  msg.task_id = 9;
  msg.shards = sent.shards;
  msg.codes = {4, 4, 0, 1, 2};
  msg.counts = {1, 1, 1, 0, 2};
  auto payload = EncodePartialResult(msg);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::vector<uint32_t> column(16, 99);
  auto counts = ParsePartialResult(payload.value(), sent, column.data());
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts.value(), msg.counts);
  // Each slice lands at its assignment's global offset; nothing else is
  // written.
  const std::vector<uint32_t> expected = {99, 99, 99, 99, 4, 4, 0, 99,
                                          99, 99, 99, 99, 1, 2, 99, 99};
  EXPECT_EQ(column, expected);

  // A hostile worker cannot smuggle a negative category count into the
  // coordinator's FrequencyTable merge (which CHECKs non-negativity).
  PartialResultMsg negative = msg;
  negative.counts = {1, -1, 1, 0, 2};
  auto hostile = ParsePartialResult(EncodePartialResult(negative).value(),
                                    sent, column.data());
  EXPECT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolCodecTest, PartialResultMustAnswerItsAssignment) {
  AssignShardsMsg sent;
  sent.task_id = 9;
  sent.matrix = RrMatrix::KeepUniform(5, 0.6);
  sent.shards.push_back({1, 0, 3});
  PartialResultMsg good;
  good.task_id = 9;
  good.shards = sent.shards;
  good.codes = {4, 4, 0};
  good.counts = {1, 0, 0, 0, 2};
  std::vector<uint32_t> column(3);
  ASSERT_TRUE(ParsePartialResult(EncodePartialResult(good).value(), sent,
                                 column.data())
                  .ok());

  PartialResultMsg wrong_task = good;
  wrong_task.task_id = 8;
  PartialResultMsg wrong_shard = good;
  wrong_shard.shards[0].shard_index = 2;
  PartialResultMsg short_slice = good;
  short_slice.shards[0].length = 2;
  short_slice.codes = {4, 4};
  PartialResultMsg wrong_counts = good;
  wrong_counts.counts = {1, 0, 0, 0, 2, 0};
  for (const PartialResultMsg& bad :
       {wrong_task, wrong_shard, short_slice, wrong_counts}) {
    auto payload = EncodePartialResult(bad);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto parsed = ParsePartialResult(payload.value(), sent, column.data());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // A code beyond the matrix fails to encode and, sent by a peer whose
  // counts claim a wider matrix, fails to parse.
  PartialResultMsg out_of_range = good;
  out_of_range.codes = {4, 5, 0};
  EXPECT_FALSE(EncodePartialResult(out_of_range).ok());
  out_of_range.counts = {1, 0, 0, 0, 1, 1};
  auto payload = EncodePartialResult(out_of_range);
  ASSERT_TRUE(payload.ok());
  EXPECT_FALSE(ParsePartialResult(payload.value(), sent, column.data()).ok());
}

// The wire cost of a release's code columns is pinned here (the
// benchmark reports time, not bytes): while r <= 256 every code crosses
// as one byte each way, plus a fixed overhead per shard and per message.
TEST(ProtocolCodecTest, ByteBudgetIsOneBytePerCodeUpTo256Categories) {
  for (size_t r : {2u, 16u, 256u}) {
    SCOPED_TRACE(testing::Message() << "r = " << r);
    constexpr size_t kN = 1000;
    constexpr size_t kShard = 256;
    std::vector<uint32_t> column(kN);
    for (size_t i = 0; i < kN; ++i) column[i] = static_cast<uint32_t>(i % r);
    AssignShardsMsg sent;
    sent.task_id = 1;
    sent.matrix = RrMatrix::KeepUniform(r, 0.6);
    for (size_t begin = 0, s = 0; begin < kN; begin += kShard, ++s) {
      sent.shards.push_back({s, begin, std::min(kShard, kN - begin)});
    }
    const size_t shards = sent.shards.size();
    auto assign = EncodeAssignShards(sent, column.data());
    ASSERT_TRUE(assign.ok()) << assign.status().ToString();
    // Header 33 + structured matrix 25 + shard count 8; per shard:
    // index 8 + begin 8 + width tag 1 + length 8.
    EXPECT_EQ(assign.value().size(), kN + 33 + 25 + 8 + shards * 25);

    PartialResultMsg reply;
    reply.task_id = 1;
    reply.shards = sent.shards;
    reply.codes = column;
    reply.counts.assign(r, 1);
    auto partial = EncodePartialResult(reply);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    // task 8 + shard count 8 + counts (8 + 8r); per shard: index 8 +
    // width tag 1 + length 8.
    EXPECT_EQ(partial.value().size(), kN + 16 + 8 + 8 * r + shards * 17);
  }
}

TEST(ProtocolCodecTest, StreamMessagesRoundTrip) {
  StreamOpenMsg open;
  open.cardinalities = {3, 2, 4};
  open.total_reports = 1000;
  auto open2 = ParseStreamOpen(EncodeStreamOpen(open));
  ASSERT_TRUE(open2.ok()) << open2.status().ToString();
  EXPECT_EQ(open2.value().cardinalities, open.cardinalities);
  EXPECT_EQ(open2.value().total_reports, 1000u);

  StreamReportMsg report;
  report.first_sequence = 512;
  report.num_reports = 2;
  report.num_attributes = 3;
  report.codes = {0, 1, 3, 2, 0, 1};
  auto report_bytes = EncodeStreamReport(report, /*code_bound=*/4);
  ASSERT_TRUE(report_bytes.ok()) << report_bytes.status().ToString();
  EXPECT_EQ(report_bytes.value().size(), 16 + 9 + report.codes.size());
  auto report2 = ParseStreamReport(report_bytes.value());
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2.value().first_sequence, 512u);
  EXPECT_EQ(report2.value().codes, report.codes);
  // The widest attribute sets the width: 300 categories travel as u16.
  report.codes[4] = 299;
  report_bytes = EncodeStreamReport(report, /*code_bound=*/300);
  ASSERT_TRUE(report_bytes.ok()) << report_bytes.status().ToString();
  EXPECT_EQ(report_bytes.value().size(), 16 + 9 + 2 * report.codes.size());
  report2 = ParseStreamReport(report_bytes.value());
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2.value().codes, report.codes);
  EXPECT_FALSE(EncodeStreamReport(report, /*code_bound=*/299).ok());

  StreamSealMsg seal{1000};
  auto seal2 = ParseStreamSeal(EncodeStreamSeal(seal));
  ASSERT_TRUE(seal2.ok()) << seal2.status().ToString();
  EXPECT_EQ(seal2.value().total_reports, 1000u);

  StreamResultMsg result;
  result.reports_ingested = 1000;
  result.epsilon_spent = 2.5;
  result.finished = 1;
  auto result2 = ParseStreamResult(EncodeStreamResult(result));
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2.value().reports_ingested, 1000u);
  EXPECT_EQ(result2.value().epsilon_spent, 2.5);
  EXPECT_EQ(result2.value().finished, 1);
}

TEST(ProtocolCodecTest, HelloRoundTripsAndAbortCarriesReason) {
  HelloMsg hello;
  hello.role = PeerRole::kIngest;
  auto hello2 = ParseHello(EncodeHello(hello));
  ASSERT_TRUE(hello2.ok()) << hello2.status().ToString();
  EXPECT_EQ(hello2.value().magic, kProtocolMagic);
  EXPECT_EQ(hello2.value().version, kProtocolVersion);
  EXPECT_EQ(hello2.value().role, PeerRole::kIngest);

  AbortMsg abort{"worker 3 lost"};
  auto abort2 = ParseAbort(EncodeAbort(abort));
  ASSERT_TRUE(abort2.ok()) << abort2.status().ToString();
  EXPECT_EQ(abort2.value().reason, "worker 3 lost");
}

}  // namespace
}  // namespace net
}  // namespace mdrr
