#include "proto/payload_store.hpp"

#include <utility>

#include "support/check.hpp"

namespace dws::proto {

ChunkBatch PayloadStore::park(std::vector<Chunk> chunks) {
  ChunkBatch batch;
  if (chunks.empty()) return batch;
  DWS_CHECK(chunks.size() <= UINT32_MAX);
  batch.chunks = static_cast<std::uint32_t>(chunks.size());
  for (const Chunk& chunk : chunks) batch.nodes += chunk.size();
  std::lock_guard<std::mutex> lock(mu_);
  batch.handle = slots_.acquire(std::move(chunks));
  return batch;
}

std::vector<Chunk> PayloadStore::take(const ChunkBatch& batch) {
  DWS_CHECK(!batch.empty());
  std::vector<Chunk> chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DWS_CHECK(batch.handle < slots_.capacity());
    chunks = slots_.take(batch.handle);
  }
  DWS_CHECK(chunks.size() == batch.chunks);
  return chunks;
}

std::size_t PayloadStore::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.in_use();
}

}  // namespace dws::proto
