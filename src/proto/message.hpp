#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "topo/allocation.hpp"
#include "uts/node.hpp"

/// dws::proto — the transport-agnostic steal-protocol core (DESIGN.md §11).
///
/// Everything in this library is pure protocol: message vocabulary, chunked
/// work stacks, victim selection, the timeout/retry state machine, and
/// Mattern-token termination. Nothing here knows whether messages travel
/// through the discrete-event simulator (dws::ws) or over MPSC channels
/// between real threads (dws::rt) — bindings supply a Transport and a clock.
namespace dws::proto {

/// A chunk of work items — the steal granularity unit (§II-A: "a thief will
/// steal a single chunk of nodes instead of a single node").
using Chunk = std::vector<uts::TreeNode>;

/// Stolen chunks in transit, as the message carries them: a handle into the
/// run's PayloadStore (payload_store.hpp), where the victim parked the
/// chunks, plus their counts inline. `chunks == 0` is an empty batch (a
/// refusal) that parks nothing.
///
/// Ownership rule: exactly one delivery takes the payload — the copy the
/// receiver accepts (an answer to its current or to an abandoned request,
/// or a lifeline push). A network duplicate of a batch shares its handle
/// and reads only the inline counts, so it never touches the store. This
/// keeps every Message trivially copyable: a refusal, which is nearly all
/// of a messaging-bound run's traffic, travels as plain bytes.
struct ChunkBatch {
  std::uint32_t handle = 0;
  std::uint32_t chunks = 0;
  std::uint64_t nodes = 0;

  bool empty() const noexcept { return chunks == 0; }
};

/// Thief -> victim: ask for work. `request_id` is a per-thief monotonic
/// counter (starting at 1) echoed by the response; it lets the thief match
/// late answers to timed-out requests and discard network duplicates, and
/// lets the victim discard duplicated requests (DESIGN.md §10).
struct StealRequest {
  topo::Rank thief;
  std::uint32_t request_id = 0;
  /// Under WsConfig::adaptive_steal_amount the thief states how much it
  /// wants per request (half vs one chunk, keyed on its recent yield); the
  /// victim honours it. Otherwise false and the victim applies the static
  /// WsConfig::steal_amount.
  bool want_half = false;
};

/// Victim -> thief: the answer. Empty `chunks` is a refusal (a failed steal
/// in the paper's statistics).
struct StealResponse {
  ChunkBatch chunks;
  std::uint32_t request_id = 0;
};

/// Termination-detection token circulating the ring 0 -> 1 -> ... -> N-1 -> 0.
/// Carries a Dijkstra-style color plus cumulative work-message counters
/// (Mattern-style counting handles messages still in flight when the token
/// passes; see peer.cpp for the combined rule).
struct Token {
  bool black = false;
  std::uint64_t sent = 0;  ///< cumulative work-carrying responses sent
  std::uint64_t recv = 0;  ///< cumulative work-carrying responses received
  /// Which circulation this probe belongs to. Rank 0 stamps a fresh
  /// generation per launch; under token_timeout it regenerates a presumed-
  /// lost token with the next generation, and every rank discards stale
  /// generations and duplicates (DESIGN.md §10).
  std::uint32_t generation = 0;
};

/// Rank 0 -> everyone: all work is globally exhausted, stop.
struct Terminate {};

/// Dormant thief -> lifeline buddy: "push me work when you have surplus"
/// (IdlePolicy::kLifeline).
struct LifelineRegister {
  topo::Rank dependent;
};

/// Lifeline buddy -> dormant thief: unsolicited work delivery.
struct LifelinePush {
  ChunkBatch chunks;
};

using Message = std::variant<StealRequest, StealResponse, Token, Terminate,
                             LifelineRegister, LifelinePush>;

// Every hop (send, fault duplicate, in-flight slab, shard mailbox, inbox,
// rt channel) copies the message as plain bytes; payloads stay parked.
static_assert(std::is_trivially_copyable_v<Message>);

}  // namespace dws::proto
