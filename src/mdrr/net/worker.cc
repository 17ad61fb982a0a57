#include "mdrr/net/worker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mdrr/common/parallel.h"
#include "mdrr/common/status_or.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/wire.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace net {
namespace {

// Computes one assignment's shards and the worker-merged counts. The
// shards spread over the host's cores; each thread adds into its own
// count row and the rows are summed at the end. Integer sums commute, so
// the counts -- like the codes, which land at fixed offsets -- do not
// depend on the thread count.
StatusOr<PartialResultMsg> ComputeAssignment(const AssignShardsMsg& msg) {
  if (!msg.matrix.has_value()) {
    return Status::InvalidArgument("assignment carries no matrix");
  }
  const RrMatrix& matrix = *msg.matrix;
  if (msg.rng_kind != static_cast<uint8_t>(RngKind::kMt19937) &&
      msg.rng_kind != static_cast<uint8_t>(RngKind::kPhilox)) {
    return Status::InvalidArgument("unknown rng policy in assignment");
  }
  const RngKind rng_kind = static_cast<RngKind>(msg.rng_kind);
  const size_t r = matrix.size();
  // The merged counts must fit in the reply frame; the per-thread rows
  // are held to the same bound by running fewer threads.
  if (r > kMaxFramePayload / sizeof(int64_t)) {
    return Status::InvalidArgument(
        "matrix too large for its counts to fit in one frame");
  }

  PartialResultMsg result;
  result.task_id = msg.task_id;
  result.shards = msg.shards;
  result.codes.resize(msg.codes.size());
  result.counts.assign(r, 0);
  const size_t num_shards = msg.shards.size();
  if (num_shards == 0) return result;

  // Shard s reads and writes codes [offsets[s], offsets[s + 1]).
  std::vector<size_t> offsets(num_shards + 1, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    offsets[s + 1] = offsets[s] + msg.shards[s].length;
  }
  const size_t threads = std::min(
      ResolveWorkerCount(/*num_threads=*/0, num_shards, 1),
      std::max<size_t>(1, kMaxFramePayload / (sizeof(int64_t) * r)));
  std::vector<std::vector<int64_t>> rows(threads, std::vector<int64_t>(r, 0));

  const RngStreamFamily family(msg.seed);
  ParallelChunks(
      num_shards, 1, threads,
      [&](size_t worker, size_t s, size_t /*begin*/, size_t /*end*/) {
        const ShardAssignment& shard = msg.shards[s];
        int64_t* counts = rows[worker].data();
        if (rng_kind == RngKind::kMt19937) {
          // Fresh per-shard generator, consumed in record order: the same
          // draws the engine's RandomizeRangeInto makes for this shard.
          Rng rng = family.Stream(msg.stream_base + shard.shard_index);
          matrix.RandomizeRangeInto(msg.codes, offsets[s], offsets[s + 1],
                                    rng, result.codes.data(), counts);
        } else {
          // Element-addressed draws: global index, not slice-local.
          matrix.RandomizeRangeCounterInto(
              msg.codes.data() + offsets[s], shard.length,
              shard.global_begin, msg.seed, msg.counter_stream,
              result.codes.data() + offsets[s], counts);
        }
      });
  for (const std::vector<int64_t>& row : rows) {
    for (size_t v = 0; v < r; ++v) result.counts[v] += row[v];
  }
  return result;
}

// Parses one AssignShards payload, computes it, and encodes the reply.
StatusOr<std::vector<uint8_t>> AnswerAssignment(
    const std::vector<uint8_t>& payload) {
  auto msg = ParseAssignShards(payload);
  if (!msg.ok()) {
    return Status(msg.status().code(),
                  "malformed AssignShards: " + msg.status().message());
  }
  MDRR_ASSIGN_OR_RETURN(PartialResultMsg partial,
                        ComputeAssignment(msg.value()));
  return EncodePartialResult(partial);
}

}  // namespace

Status RunWorker(const std::string& host, uint16_t port,
                 const WorkerOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      TcpConnection conn,
      TcpConnection::Connect(host, port, options.deadline_ms));
  MDRR_RETURN_IF_ERROR(
      ClientHandshake(conn, PeerRole::kWorker, options.deadline_ms));

  for (;;) {
    MDRR_ASSIGN_OR_RETURN(Frame frame,
                          conn.RecvFrame(options.idle_deadline_ms));
    switch (frame.type) {
      case FrameType::kAssignShards: {
        auto reply = AnswerAssignment(frame.payload);
        if (!reply.ok()) {
          AbortMsg abort{reply.status().message()};
          conn.SendFrame(FrameType::kAbort, EncodeAbort(abort),
                         options.deadline_ms);
          return reply.status();
        }
        MDRR_RETURN_IF_ERROR(conn.SendFrame(
            FrameType::kPartialResult, reply.value(), options.deadline_ms));
        break;
      }
      case FrameType::kCommit:
        return Status::OK();
      case FrameType::kAbort: {
        auto abort = ParseAbort(frame.payload);
        return Status::Unavailable(
            "coordinator aborted: " +
            (abort.ok() ? abort->reason : std::string("(unparseable)")));
      }
      default:
        return Status::InvalidArgument(
            "unexpected frame type from coordinator");
    }
  }
}

}  // namespace net
}  // namespace mdrr
