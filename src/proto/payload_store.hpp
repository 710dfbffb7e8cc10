#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "proto/message.hpp"
#include "sim/pool.hpp"

namespace dws::proto {

/// Where stolen chunks wait while their ChunkBatch travels: one store per
/// run, shared by every peer of the run (and by every shard and rank thread,
/// hence the mutex). Only work-carrying messages touch it — the victim parks
/// on send, and the one accepted delivery takes (see ChunkBatch) — so the
/// lock is off the path of requests, refusals and tokens.
///
/// The store owns whatever is parked, so a run that ends early (an error, an
/// exception) frees it with the store. A run that ends cleanly has taken
/// every payload it parked: its driver checks in_use() == 0 next to
/// chunks_sent == chunks_received.
class PayloadStore {
 public:
  /// Parks `chunks` and returns the batch that stands for them. An empty
  /// vector parks nothing and returns the empty batch.
  ChunkBatch park(std::vector<Chunk> chunks);

  /// Moves the parked chunks of `batch` out and frees its handle, which a
  /// later park may reuse. Call once per non-empty batch.
  std::vector<Chunk> take(const ChunkBatch& batch);

  /// Payloads parked and not yet taken.
  std::size_t in_use() const;

 private:
  mutable std::mutex mu_;
  sim::SlabPool<std::vector<Chunk>> slots_;  // guarded by mu_
};

}  // namespace dws::proto
