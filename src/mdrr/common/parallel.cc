#include "mdrr/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "mdrr/common/check.h"

namespace mdrr {

size_t NumChunks(size_t n, size_t chunk_size) {
  MDRR_CHECK_GT(chunk_size, 0u);
  return std::max<size_t>(1, (n + chunk_size - 1) / chunk_size);
}

size_t ResolveWorkerCount(size_t num_threads, size_t n, size_t chunk_size) {
  size_t workers = num_threads;
  if (workers == 0) {
    workers = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  return std::min(workers, NumChunks(n, chunk_size));
}

void ParallelChunks(size_t n, size_t chunk_size, size_t num_threads,
                    const std::function<void(size_t, size_t, size_t,
                                             size_t)>& fn) {
  const size_t num_chunks = NumChunks(n, chunk_size);
  const size_t workers = ResolveWorkerCount(num_threads, n, chunk_size);

  std::atomic<size_t> next_chunk{0};
  auto run_worker = [&](size_t worker_id) {
    for (size_t c = next_chunk.fetch_add(1); c < num_chunks;
         c = next_chunk.fetch_add(1)) {
      size_t begin = c * chunk_size;
      size_t end = std::min(n, begin + chunk_size);
      fn(worker_id, c, begin, end);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    pool.emplace_back(run_worker, w);
  }
  run_worker(0);  // The calling thread is worker 0.
  for (std::thread& t : pool) t.join();
}

void ChunkedDoubleAccumulator::ReduceInto(double* out, size_t begin,
                                          size_t end) const {
  MDRR_CHECK_LE(begin, end);
  MDRR_CHECK_LE(end, width_);
  for (size_t v = begin; v < end; ++v) out[v] = 0.0;
  const size_t num_chunks = stride_ == 0 ? 0 : slots_.size() / stride_;
  for (size_t c = 0; c < num_chunks; ++c) {
    const double* row = slots_.data() + c * stride_;
    for (size_t v = begin; v < end; ++v) out[v] += row[v];
  }
}

}  // namespace mdrr
