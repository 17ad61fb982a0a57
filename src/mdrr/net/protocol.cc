#include "mdrr/net/protocol.h"

#include <utility>

#include "mdrr/net/wire.h"

namespace mdrr {
namespace net {
namespace {

// Guard for claimed collection sizes whose elements occupy at least
// `element_bytes` on the wire each.
Status CheckClaimed(uint64_t claimed, size_t element_bytes,
                    const WireReader& reader, const char* what) {
  if (claimed > reader.remaining() / element_bytes) {
    return Status::OutOfRange(std::string("claimed ") + what +
                              " count exceeds buffer");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  WireWriter w;
  w.U32(msg.magic);
  w.U32(msg.version);
  w.U8(static_cast<uint8_t>(msg.role));
  return w.Release();
}

StatusOr<HelloMsg> ParseHello(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  HelloMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.magic, r.U32());
  MDRR_ASSIGN_OR_RETURN(msg.version, r.U32());
  MDRR_ASSIGN_OR_RETURN(uint8_t role, r.U8());
  if (role != static_cast<uint8_t>(PeerRole::kWorker) &&
      role != static_cast<uint8_t>(PeerRole::kIngest)) {
    return Status::InvalidArgument("unknown peer role");
  }
  msg.role = static_cast<PeerRole>(role);
  return msg;
}

Status ClientHandshake(TcpConnection& conn, PeerRole role,
                       int64_t deadline_ms) {
  HelloMsg hello;
  hello.role = role;
  MDRR_RETURN_IF_ERROR(
      conn.SendFrame(FrameType::kHello, EncodeHello(hello), deadline_ms));
  MDRR_ASSIGN_OR_RETURN(Frame frame, conn.RecvFrame(deadline_ms));
  if (frame.type == FrameType::kAbort) {
    auto abort = ParseAbort(frame.payload);
    return Status::Unavailable("server rejected handshake: " +
                               (abort.ok() ? abort->reason
                                           : std::string("(unparseable)")));
  }
  if (frame.type != FrameType::kHelloAck) {
    return Status::InvalidArgument("expected HelloAck in handshake");
  }
  WireReader r(frame.payload);
  MDRR_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  MDRR_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kProtocolMagic) {
    return Status::InvalidArgument("server spoke a different protocol");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: server v" + std::to_string(version) +
        ", client v" + std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

StatusOr<PeerRole> ServerHandshake(TcpConnection& conn, int64_t deadline_ms) {
  MDRR_ASSIGN_OR_RETURN(Frame frame, conn.RecvFrame(deadline_ms));
  if (frame.type != FrameType::kHello) {
    AbortMsg abort{"expected Hello"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument("peer did not open with Hello");
  }
  auto hello = ParseHello(frame.payload);
  if (!hello.ok()) {
    AbortMsg abort{"malformed Hello"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return hello.status();
  }
  if (hello->magic != kProtocolMagic) {
    AbortMsg abort{"bad protocol magic"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument("peer spoke a different protocol");
  }
  if (hello->version != kProtocolVersion) {
    AbortMsg abort{"unsupported protocol version v" +
                   std::to_string(hello->version) + " (server speaks v" +
                   std::to_string(kProtocolVersion) + ")"};
    conn.SendFrame(FrameType::kAbort, EncodeAbort(abort), deadline_ms);
    return Status::InvalidArgument(
        "protocol version mismatch: peer v" + std::to_string(hello->version) +
        ", server v" + std::to_string(kProtocolVersion));
  }
  WireWriter ack;
  ack.U32(kProtocolMagic);
  ack.U32(kProtocolVersion);
  MDRR_RETURN_IF_ERROR(
      conn.SendFrame(FrameType::kHelloAck, ack.Release(), deadline_ms));
  return hello->role;
}

StatusOr<std::vector<uint8_t>> EncodeAssignShards(const AssignShardsMsg& msg,
                                                  const uint32_t* column) {
  const uint64_t bound = msg.matrix->size();
  WireWriter w;
  w.U64(msg.task_id);
  w.U8(msg.rng_kind);
  w.U64(msg.seed);
  w.U64(msg.stream_base);
  w.U64(msg.counter_stream);
  EncodeMatrix(*msg.matrix, w);
  w.U64(msg.shards.size());
  for (const ShardAssignment& shard : msg.shards) {
    w.U64(shard.shard_index);
    w.U64(shard.global_begin);
    MDRR_RETURN_IF_ERROR(
        EncodeCodes(column + shard.global_begin, shard.length, bound, w));
  }
  return w.Release();
}

StatusOr<AssignShardsMsg> ParseAssignShards(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AssignShardsMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.task_id, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.rng_kind, r.U8());
  MDRR_ASSIGN_OR_RETURN(msg.seed, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.stream_base, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.counter_stream, r.U64());
  MDRR_ASSIGN_OR_RETURN(RrMatrix matrix, DecodeMatrix(r));
  msg.matrix.emplace(std::move(matrix));
  MDRR_ASSIGN_OR_RETURN(uint64_t num_shards, r.U64());
  // Each shard is at least shard_index + global_begin + a column header.
  MDRR_RETURN_IF_ERROR(CheckClaimed(num_shards, 25, r, "shard"));
  msg.shards.reserve(static_cast<size_t>(num_shards));
  // Borrow every column first: the lengths are then known (and bounded
  // by the payload), so the codes are allocated once and widened once.
  std::vector<WireCodes> columns;
  columns.reserve(static_cast<size_t>(num_shards));
  size_t total = 0;
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardAssignment shard;
    MDRR_ASSIGN_OR_RETURN(shard.shard_index, r.U64());
    MDRR_ASSIGN_OR_RETURN(shard.global_begin, r.U64());
    MDRR_ASSIGN_OR_RETURN(WireCodes codes, DecodeCodes(r));
    shard.length = codes.length;
    total += codes.length;
    msg.shards.push_back(shard);
    columns.push_back(codes);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after AssignShards");
  }
  msg.codes.resize(total);
  uint32_t* out = msg.codes.data();
  for (const WireCodes& codes : columns) {
    MDRR_RETURN_IF_ERROR(codes.WidenInto(msg.matrix->size(), out));
    out += codes.length;
  }
  return msg;
}

StatusOr<std::vector<uint8_t>> EncodePartialResult(
    const PartialResultMsg& msg) {
  const uint64_t bound = msg.counts.size();
  size_t total = 0;
  for (const ShardAssignment& shard : msg.shards) total += shard.length;
  if (total != msg.codes.size()) {
    return Status::InvalidArgument(
        "PartialResult shard lengths do not cover its codes");
  }
  WireWriter w;
  w.U64(msg.task_id);
  w.U64(msg.shards.size());
  const uint32_t* codes = msg.codes.data();
  for (const ShardAssignment& shard : msg.shards) {
    w.U64(shard.shard_index);
    MDRR_RETURN_IF_ERROR(EncodeCodes(codes, shard.length, bound, w));
    codes += shard.length;
  }
  EncodeCounts(msg.counts, w);
  return w.Release();
}

StatusOr<std::vector<int64_t>> ParsePartialResult(
    const std::vector<uint8_t>& payload, const AssignShardsMsg& sent,
    uint32_t* column) {
  WireReader r(payload);
  MDRR_ASSIGN_OR_RETURN(uint64_t task_id, r.U64());
  if (task_id != sent.task_id) {
    return Status::InvalidArgument("PartialResult answers the wrong task");
  }
  MDRR_ASSIGN_OR_RETURN(uint64_t num_shards, r.U64());
  if (num_shards != sent.shards.size()) {
    return Status::InvalidArgument(
        "PartialResult shard count differs from the assignment");
  }
  const uint64_t bound = sent.matrix->size();
  for (const ShardAssignment& want : sent.shards) {
    MDRR_ASSIGN_OR_RETURN(uint64_t shard_index, r.U64());
    MDRR_ASSIGN_OR_RETURN(WireCodes codes, DecodeCodes(r));
    if (shard_index != want.shard_index || codes.length != want.length) {
      return Status::InvalidArgument(
          "PartialResult shards do not match the assignment");
    }
    MDRR_RETURN_IF_ERROR(codes.WidenInto(bound, column + want.global_begin));
  }
  MDRR_ASSIGN_OR_RETURN(std::vector<int64_t> counts, DecodeCounts(r));
  if (counts.size() != bound) {
    return Status::InvalidArgument(
        "PartialResult counts do not match the matrix size");
  }
  // Perturbation counts are category tallies: a negative value can only
  // come from a broken or hostile worker, and downstream
  // FrequencyTable::Absorb must never see it (it would CHECK).
  for (int64_t count : counts) {
    if (count < 0) {
      return Status::InvalidArgument("PartialResult count is negative");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after PartialResult");
  }
  return counts;
}

std::vector<uint8_t> EncodeAbort(const AbortMsg& msg) {
  WireWriter w;
  w.String(msg.reason);
  return w.Release();
}

StatusOr<AbortMsg> ParseAbort(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AbortMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.reason, r.String());
  return msg;
}

std::vector<uint8_t> EncodeStreamOpen(const StreamOpenMsg& msg) {
  WireWriter w;
  w.U64(msg.cardinalities.size());
  for (uint64_t c : msg.cardinalities) w.U64(c);
  w.U64(msg.total_reports);
  return w.Release();
}

StatusOr<StreamOpenMsg> ParseStreamOpen(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamOpenMsg msg;
  MDRR_ASSIGN_OR_RETURN(uint64_t num_attrs, r.U64());
  MDRR_RETURN_IF_ERROR(CheckClaimed(num_attrs, 8, r, "cardinality"));
  msg.cardinalities.resize(static_cast<size_t>(num_attrs));
  for (size_t j = 0; j < msg.cardinalities.size(); ++j) {
    MDRR_ASSIGN_OR_RETURN(msg.cardinalities[j], r.U64());
    if (msg.cardinalities[j] == 0) {
      return Status::InvalidArgument("attribute cardinality must be >= 1");
    }
  }
  MDRR_ASSIGN_OR_RETURN(msg.total_reports, r.U64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamOpen");
  }
  return msg;
}

StatusOr<std::vector<uint8_t>> EncodeStreamReport(const StreamReportMsg& msg,
                                                  uint64_t code_bound) {
  WireWriter w;
  w.U64(msg.first_sequence);
  w.U32(msg.num_reports);
  w.U32(msg.num_attributes);
  MDRR_RETURN_IF_ERROR(
      EncodeCodes(msg.codes.data(), msg.codes.size(), code_bound, w));
  return w.Release();
}

StatusOr<StreamReportMsg> ParseStreamReport(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamReportMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.first_sequence, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.num_reports, r.U32());
  MDRR_ASSIGN_OR_RETURN(msg.num_attributes, r.U32());
  if (msg.num_reports == 0 || msg.num_attributes == 0) {
    return Status::InvalidArgument("empty stream report batch");
  }
  MDRR_ASSIGN_OR_RETURN(WireCodes codes, DecodeCodes(r));
  if (codes.length != static_cast<uint64_t>(msg.num_reports) *
                          static_cast<uint64_t>(msg.num_attributes)) {
    return Status::InvalidArgument(
        "stream report code count differs from reports x attributes");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamReport");
  }
  // Any u32 is a well-formed code here; the server, which knows the
  // schema, range-checks each attribute.
  msg.codes.resize(codes.length);
  MDRR_RETURN_IF_ERROR(
      codes.WidenInto(uint64_t{1} << 32, msg.codes.data()));
  return msg;
}

std::vector<uint8_t> EncodeStreamSeal(const StreamSealMsg& msg) {
  WireWriter w;
  w.U64(msg.total_reports);
  return w.Release();
}

StatusOr<StreamSealMsg> ParseStreamSeal(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamSealMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.total_reports, r.U64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamSeal");
  }
  return msg;
}

std::vector<uint8_t> EncodeStreamResult(const StreamResultMsg& msg) {
  WireWriter w;
  w.U64(msg.reports_ingested);
  w.F64(msg.epsilon_spent);
  w.U8(msg.finished);
  return w.Release();
}

StatusOr<StreamResultMsg> ParseStreamResult(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  StreamResultMsg msg;
  MDRR_ASSIGN_OR_RETURN(msg.reports_ingested, r.U64());
  MDRR_ASSIGN_OR_RETURN(msg.epsilon_spent, r.F64());
  MDRR_ASSIGN_OR_RETURN(msg.finished, r.U8());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after StreamResult");
  }
  return msg;
}

}  // namespace net
}  // namespace mdrr
