// Worker side of the distributed release protocol.
//
// RunWorker connects to a coordinator, handshakes as PeerRole::kWorker,
// then serves AssignShards requests until the coordinator commits
// (Status::OK), aborts (Status::Unavailable with the reason), or the
// connection fails. One call serves exactly one release session.
//
// The shards of one assignment spread over the host's cores, each thread
// counting into its own row; the rows are summed at the end (integer sums
// commute), so the reply does not depend on the thread count.
//
// Shard computation reproduces the in-process engine draw-for-draw:
//   kMt19937: shard s draws from RngStreamFamily(seed).Stream(
//             stream_base + s) via RandomizeRangeInto over the slice --
//             a fresh generator per shard consumed in record order,
//             exactly the engine's kernel.
//   kPhilox:  element k of the slice is element (global_begin + k) of
//             counter stream (seed, counter_stream): the slice form of
//             the engine's RandomizeRangeCounterInto tile kernel.

#ifndef MDRR_NET_WORKER_H_
#define MDRR_NET_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "mdrr/common/status.h"

namespace mdrr {
namespace net {

struct WorkerOptions {
  // Deadline for connect, handshake, and result sends; <= 0 uses
  // kDefaultDeadlineMs.
  int64_t deadline_ms = 0;
  // How long to sit idle waiting for the next assignment before giving
  // up on the coordinator. Longer than deadline_ms because the
  // coordinator legitimately goes quiet while it runs the serial stages
  // (adjustment, synthesis, estimation) between column perturbations.
  int64_t idle_deadline_ms = 120000;
};

// Serves one coordinator session. Returns OK on Commit, an error on
// Abort, malformed traffic, or connection failure.
Status RunWorker(const std::string& host, uint16_t port,
                 const WorkerOptions& options = {});

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_WORKER_H_
