#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dws::sim {

/// Slab + freelist object pool addressed by 32-bit handles.
///
/// Backs every payload too big for the inline Event::payload field: the
/// network's in-flight messages and the worker's packaged steal responses,
/// and, behind a mutex, the chunks parked in a proto::PayloadStore. Slots
/// are recycled through the freelist, so a steady-state schedule/dispatch
/// cycle performs zero heap allocations once the slab has grown to the
/// workload's high-water mark. Messages and packaged responses are plain
/// bytes; only the payload store's slots own heap memory (chunk vectors),
/// and reusing one move-assigns over the previous moved-from value.
///
/// Handles are invalidated by take(); acquiring after a take may reuse the
/// handle. The pool never shrinks within a run.
template <typename T>
class SlabPool {
 public:
  using Handle = std::uint32_t;

  /// Stores `value` and returns its handle.
  Handle acquire(T value) {
    if (!free_.empty()) {
      const Handle h = free_.back();
      free_.pop_back();
      slots_[h] = std::move(value);
      return h;
    }
    DWS_CHECK(slots_.size() < UINT32_MAX);
    slots_.push_back(std::move(value));
    return static_cast<Handle>(slots_.size() - 1);
  }

  /// Moves the value out and releases the slot.
  T take(Handle h) {
    DWS_DCHECK(h < slots_.size());
    T out = std::move(slots_[h]);
    free_.push_back(h);
    return out;
  }

  std::size_t in_use() const noexcept { return slots_.size() - free_.size(); }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<Handle> free_;
};

}  // namespace dws::sim
