// Wire codecs for the mergeable partial state that crosses the
// coordinator/worker boundary.
//
// Everything here is a pure buffer transform (no sockets), so the fuzz
// suite can drive the decoders with arbitrary bytes. Decoders validate
// every embedded length against WireReader::remaining() BEFORE
// allocating -- a hostile peer claiming 2^60 elements gets an error, not
// an out-of-memory kill -- and return Status on any malformed input.
//
// Matrix transport is representation-tagged so a decoded matrix draws
// bit-identically to the source:
//   - structured (uniform mixture): the three defining parameters
//     {size, diagonal, off_diagonal} travel verbatim and are rebuilt via
//     RrMatrix::FromStructured, skipping any dense round trip.
//   - dense: raw row-major doubles, rebuilt via RrMatrix::FromDense.
//     FromDense re-runs uniform-mixture detection, but detection is a
//     deterministic function of the exact doubles -- a matrix that was
//     dense at the source decodes dense again.

#ifndef MDRR_NET_WIRE_H_
#define MDRR_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/net/frame.h"

namespace mdrr {
namespace net {

// --- RrMatrix ---

void EncodeMatrix(const RrMatrix& matrix, WireWriter& writer);
StatusOr<RrMatrix> DecodeMatrix(WireReader& reader);

// --- Count buffers (i64) ---

void EncodeCounts(const std::vector<int64_t>& counts, WireWriter& writer);
StatusOr<std::vector<int64_t>> DecodeCounts(WireReader& reader);

// --- Code columns ---
//
// A code column travels as [u8 width][u64 length][length codes], each
// code little-endian in `width` bytes. The width is the narrowest of 1,
// 2 and 4 that holds every code below the column's bound -- the matrix
// size or the category count, which both sides already share -- so no
// option selects it: Adult's codes (all below 16) cross at one byte.

// Narrowest code width in bytes (1, 2 or 4) for codes below `bound`.
uint8_t CodeWidth(uint64_t bound);

// Appends codes[0, len) at CodeWidth(bound) bytes each through one
// exact-size growth of `writer`, range-checking every code in the same
// pass that narrows it. A code >= bound fails InvalidArgument; the
// writer then holds a partial column and must be discarded.
Status EncodeCodes(const uint32_t* codes, size_t len, uint64_t bound,
                   WireWriter& writer);

// A received code column: `length` codes of `width` bytes at `bytes`,
// borrowed from the reader's buffer (valid while that buffer lives).
struct WireCodes {
  uint8_t width = 4;
  size_t length = 0;
  const uint8_t* bytes = nullptr;

  // Widens every code into out[0, length) in one pass, failing
  // InvalidArgument if any is >= bound (out is written either way).
  Status WidenInto(uint64_t bound, uint32_t* out) const;
};

// Reads a column's width tag and length and borrows its codes. A tag
// other than 1, 2 or 4 fails InvalidArgument; a length beyond the bytes
// present fails OutOfRange -- one check, before the caller allocates.
StatusOr<WireCodes> DecodeCodes(WireReader& reader);

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_WIRE_H_
