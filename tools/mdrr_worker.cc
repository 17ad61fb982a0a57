// mdrr_worker: worker process for a distributed release.
//
//   mdrr_worker --connect=HOST:PORT [--deadline_ms=MS] [--idle_deadline_ms=MS]
//
// Connects to a coordinator (a `mdrr_cli run --listen=PORT` process or
// an embedded net::Coordinator), handshakes, and serves shard
// assignments until the coordinator commits. The worker holds no data
// and no spec: everything it needs to reproduce the engine's
// deterministic draws (matrix, seed, stream addresses, shard slices)
// arrives in each AssignShards message. The shards of an assignment
// spread over the host's cores; the result is byte-identical for every
// core count.
//
// Exit status: 0 after a clean Commit, 1 on a malformed flag value or on
// any transport, protocol, or compute failure (including a coordinator
// Abort).

#include <cstdio>
#include <string>

#include "mdrr/common/flags.h"
#include "mdrr/common/string_util.h"
#include "mdrr/net/worker.h"

int main(int argc, char** argv) {
  mdrr::FlagSet flags;
  flags.Parse(argc, argv);

  const std::string target = flags.GetString("connect", "");
  const size_t colon = target.rfind(':');
  if (target.empty() || colon == std::string::npos) {
    std::fprintf(stderr,
                 "usage: mdrr_worker --connect=HOST:PORT [--deadline_ms=MS] "
                 "[--idle_deadline_ms=MS]\n"
                 "  the shards of each assignment spread over the host's "
                 "cores\n");
    return 1;
  }
  const std::string host = target.substr(0, colon);
  auto port = mdrr::ParseInt64(target.substr(colon + 1));
  if (!port.ok() || port.value() < 1 || port.value() > 65535) {
    std::fprintf(stderr, "error: --connect port must be 1..65535\n");
    return 1;
  }

  mdrr::net::WorkerOptions options;
  options.deadline_ms = flags.GetInt("deadline_ms", options.deadline_ms);
  options.idle_deadline_ms =
      flags.GetInt("idle_deadline_ms", options.idle_deadline_ms);
  if (mdrr::Status parsed = flags.status(); !parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    return 1;
  }

  mdrr::Status status = mdrr::net::RunWorker(
      host, static_cast<uint16_t>(port.value()), options);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("worker done\n");
  return 0;
}
