// Streaming ingest over real sockets: the network front end of the
// always-on collector (the PR 6 "ingest over real sockets" leftover,
// single-connection replay case).
//
// ServeStreamIngest is the collectd side: it accepts ONE ingest client
// on an already-bound listener, handshakes with the net/ protocol,
// creates a StreamingCollector from the client's StreamOpen schema, and
// feeds every StreamReport batch through the normal
// TrySubmit/DrainShard/PollWindows path until the client seals. The
// transcript is bit-identical to the in-process RunStreamingReplay at
// the same spec: report randomness is keyed off absolute sequence
// numbers by the CLIENT (the controller never sees true values), and
// the collector never learns how reports traveled.
//
// StreamReportsOverSocket is the client side: it perturbs dataset rows
// through the same PerturbStreamReport as RunStreamingReplay's producers
// and ships them in contiguous batches.
//
// Multi-connection ingest (several parties submitting concurrently)
// remains future work -- see ROADMAP.

#ifndef MDRR_PROTOCOL_NET_INGEST_H_
#define MDRR_PROTOCOL_NET_INGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/net/socket.h"
#include "mdrr/release/spec.h"
#include "mdrr/release/streaming.h"

namespace mdrr::protocol {

struct StreamIngestServeOptions {
  release::StreamingCollectorOptions collector;
  // Per-operation network deadline; <= 0 uses the transport default.
  int64_t deadline_ms = 0;
};

struct StreamServeResult {
  std::vector<release::StreamWindow> windows;
  uint64_t reports_ingested = 0;
  double epsilon_spent = 0.0;
  bool finished = false;
};

// Serves one ingest session on `listener` (already Listen()ed). Blocks
// until the client seals or errors; fail-closed on malformed traffic.
StatusOr<StreamServeResult> ServeStreamIngest(
    const release::ReleaseSpec& spec, net::TcpListener& listener,
    const StreamIngestServeOptions& options = {});

struct StreamIngestClientOptions {
  // Reports to stream; 0 = one per dataset row. Beyond num_rows the
  // replay wraps around the dataset, like RunStreamingReplay.
  uint64_t total_reports = 0;
  // Reports per StreamReport frame.
  uint32_t batch_size = 512;
  int64_t deadline_ms = 0;
};

struct StreamIngestClientResult {
  uint64_t reports_sent = 0;
  // Echoed from the server's StreamResult.
  uint64_t reports_ingested = 0;
  double epsilon_spent = 0.0;
  bool finished = false;
};

// Replays `dataset` into a ServeStreamIngest endpoint at host:port.
StatusOr<StreamIngestClientResult> StreamReportsOverSocket(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const std::string& host, uint16_t port,
    const StreamIngestClientOptions& options = {});

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_NET_INGEST_H_
