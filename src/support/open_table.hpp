#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dws::support {

/// Open-addressed hash table from 64-bit keys to `Value`: one flat slot
/// array, Fibonacci hashing, linear probing, load factor at or below one
/// half. Removal (erase) shifts the rest of the probe run back instead of
/// leaving tombstones, so a table that churns keys never degrades. Storage
/// only grows, to the peak live entry count: steady-state churn allocates
/// nothing. Used for the simulator's per-channel state, keyed by
/// `(src << 32) | dst`: the network's ordering state (sim::ChannelTable)
/// and the fault injector's per-channel draw counters (fault::Injector).
///
/// kNoKey marks an empty slot and must never be inserted. Every empty slot
/// holds a value-initialised Value, so an insertion writes only its key.
/// Iteration visits the live entries in slot order, which depends on the
/// insertion history; callers must not let it reach a result that has to
/// be deterministic across shard counts.
template <typename Value>
class OpenTable {
 public:
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kNoKey;
    Value value{};
  };

  /// The value of `key`, value-initialised on first use.
  Value& operator[](std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kNoKey; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  /// The slot of `key`, or nullptr when it is absent.
  Slot* find(std::uint64_t key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key); slots_[i].key != kNoKey;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i];
    }
    return nullptr;
  }

  /// Removes the entry in `slot`, a live slot of this table.
  void erase(Slot& slot) noexcept {
    std::size_t hole = static_cast<std::size_t>(&slot - slots_.data());
    // Backward shift: walk the rest of the probe run and move each entry
    // whose home slot lies cyclically at or before the hole into it, so
    // every remaining key stays reachable from its home without tombstones.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kNoKey;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Live entries.
  std::size_t size() const noexcept { return size_; }

  /// Forward iteration over the live slots; a slot binds as
  /// `const auto& [key, value]`.
  class const_iterator {
   public:
    const_iterator(const Slot* at, const Slot* end) noexcept
        : at_(at), end_(end) {
      skip_empty();
    }
    const Slot& operator*() const noexcept { return *at_; }
    const_iterator& operator++() noexcept {
      ++at_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& other) const noexcept {
      return at_ == other.at_;
    }

   private:
    void skip_empty() noexcept {
      while (at_ != end_ && at_->key == kNoKey) ++at_;
    }
    const Slot* at_;
    const Slot* end_;
  };

  const_iterator begin() const noexcept {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const noexcept {
    const Slot* last = slots_.data() + slots_.size();
    return {last, last};
  }

 private:
  /// Fibonacci hashing: the top bits of key times 2^64/phi.
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Doubles the slot count (64 at first use), keeping the load factor at
  /// or below one half.
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.key == kNoKey) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kNoKey) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace dws::support
