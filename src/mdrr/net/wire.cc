#include "mdrr/net/wire.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "mdrr/linalg/matrix.h"
#include "mdrr/linalg/structured.h"

namespace mdrr {
namespace net {
namespace {

constexpr uint8_t kMatrixStructured = 1;
constexpr uint8_t kMatrixDense = 2;

// Bounds a claimed element count against the bytes actually present.
Status CheckClaimedLength(uint64_t claimed, size_t element_bytes,
                          const WireReader& reader, const char* what) {
  if (claimed > reader.remaining() / element_bytes) {
    return Status::OutOfRange(std::string("claimed ") + what +
                              " length exceeds buffer");
  }
  return Status::OK();
}

// The bulk code loops. Each tracks the largest code alongside the copy,
// so the range check costs no second pass; bytes move by shifts, never by
// punning, so a column is little-endian on every host. Stores codes[0,
// len) at kWidth bytes each into out; returns the largest code.
template <size_t kWidth>
uint32_t StoreCodes(const uint32_t* codes, size_t len, uint8_t* out) {
  uint32_t largest = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t code = codes[i];
    largest = std::max(largest, code);
    for (size_t b = 0; b < kWidth; ++b) {
      out[kWidth * i + b] = static_cast<uint8_t>(code >> (8 * b));
    }
  }
  return largest;
}

// Loads `len` codes of kWidth bytes each from `in` into out[0, len);
// returns the largest code.
template <size_t kWidth>
uint32_t LoadCodes(const uint8_t* in, size_t len, uint32_t* out) {
  uint32_t largest = 0;
  for (size_t i = 0; i < len; ++i) {
    uint32_t code = 0;
    for (size_t b = 0; b < kWidth; ++b) {
      code |= static_cast<uint32_t>(in[kWidth * i + b]) << (8 * b);
    }
    largest = std::max(largest, code);
    out[i] = code;
  }
  return largest;
}

// The range check the bulk code loops share: the largest code of the
// column, judged once at the end.
Status CheckLargestCode(uint32_t largest, size_t len, uint64_t bound) {
  if (len > 0 && largest >= bound) {
    return Status::InvalidArgument("code " + std::to_string(largest) +
                                   " is outside the column's " +
                                   std::to_string(bound) + " categories");
  }
  return Status::OK();
}

}  // namespace

void EncodeMatrix(const RrMatrix& matrix, WireWriter& writer) {
  if (matrix.is_structured()) {
    const linalg::UniformMixture& m = *matrix.structured();
    writer.U8(kMatrixStructured);
    writer.U64(m.size);
    writer.F64(m.diagonal);
    writer.F64(m.off_diagonal);
    return;
  }
  linalg::Matrix dense = matrix.ToDense();
  writer.U8(kMatrixDense);
  writer.U64(dense.rows());
  for (size_t u = 0; u < dense.rows(); ++u) {
    for (size_t v = 0; v < dense.cols(); ++v) {
      writer.F64(dense(u, v));
    }
  }
}

StatusOr<RrMatrix> DecodeMatrix(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
  if (tag == kMatrixStructured) {
    MDRR_ASSIGN_OR_RETURN(uint64_t size, reader.U64());
    MDRR_ASSIGN_OR_RETURN(double diagonal, reader.F64());
    MDRR_ASSIGN_OR_RETURN(double off_diagonal, reader.F64());
    if (size == 0 || size > kMaxFramePayload) {
      return Status::InvalidArgument("structured matrix size out of range");
    }
    return RrMatrix::FromStructured(linalg::UniformMixture{
        static_cast<size_t>(size), diagonal, off_diagonal});
  }
  if (tag == kMatrixDense) {
    MDRR_ASSIGN_OR_RETURN(uint64_t r, reader.U64());
    if (r == 0) {
      return Status::InvalidArgument("dense matrix must be nonempty");
    }
    // r * r doubles must fit in what's actually on the wire.
    if (r > reader.remaining() / 8 || r * r > reader.remaining() / 8) {
      return Status::OutOfRange("claimed dense matrix exceeds buffer");
    }
    size_t n = static_cast<size_t>(r);
    linalg::Matrix dense(n, n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = 0; v < n; ++v) {
        MDRR_ASSIGN_OR_RETURN(dense(u, v), reader.F64());
      }
    }
    return RrMatrix::FromDense(std::move(dense));
  }
  return Status::InvalidArgument("unknown matrix representation tag");
}

void EncodeCounts(const std::vector<int64_t>& counts, WireWriter& writer) {
  writer.U64(counts.size());
  for (int64_t c : counts) writer.I64(c);
}

StatusOr<std::vector<int64_t>> DecodeCounts(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(CheckClaimedLength(len, 8, reader, "count buffer"));
  std::vector<int64_t> counts(static_cast<size_t>(len));
  for (size_t i = 0; i < counts.size(); ++i) {
    MDRR_ASSIGN_OR_RETURN(counts[i], reader.I64());
  }
  return counts;
}

uint8_t CodeWidth(uint64_t bound) {
  if (bound <= (uint64_t{1} << 8)) return 1;
  if (bound <= (uint64_t{1} << 16)) return 2;
  return 4;
}

Status EncodeCodes(const uint32_t* codes, size_t len, uint64_t bound,
                   WireWriter& writer) {
  const uint8_t width = CodeWidth(bound);
  writer.U8(width);
  writer.U64(len);
  uint8_t* out = writer.Grow(len * width);
  uint32_t largest = 0;
  switch (width) {
    case 1: largest = StoreCodes<1>(codes, len, out); break;
    case 2: largest = StoreCodes<2>(codes, len, out); break;
    default: largest = StoreCodes<4>(codes, len, out); break;
  }
  return CheckLargestCode(largest, len, bound);
}

Status WireCodes::WidenInto(uint64_t bound, uint32_t* out) const {
  uint32_t largest = 0;
  switch (width) {
    case 1: largest = LoadCodes<1>(bytes, length, out); break;
    case 2: largest = LoadCodes<2>(bytes, length, out); break;
    default: largest = LoadCodes<4>(bytes, length, out); break;
  }
  return CheckLargestCode(largest, length, bound);
}

StatusOr<WireCodes> DecodeCodes(WireReader& reader) {
  WireCodes codes;
  MDRR_ASSIGN_OR_RETURN(codes.width, reader.U8());
  if (codes.width != 1 && codes.width != 2 && codes.width != 4) {
    return Status::InvalidArgument("code width tag " +
                                   std::to_string(codes.width) +
                                   " is not 1, 2 or 4");
  }
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(
      CheckClaimedLength(len, codes.width, reader, "code column"));
  codes.length = static_cast<size_t>(len);
  MDRR_ASSIGN_OR_RETURN(codes.bytes,
                        reader.Borrow(codes.length * codes.width));
  return codes;
}

}  // namespace net
}  // namespace mdrr
