#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dws::support {

/// Open-addressed hash table from 64-bit keys to `Value`: one flat slot
/// array, Fibonacci hashing, linear probing, load factor at or below one
/// half. Entries are never removed one by one; retain() rebuilds the table
/// without the entries a predicate rejects, so a table whose keys go stale
/// can drop them instead of growing. Storage only grows: steady-state churn
/// allocates nothing. Used for the simulator's per-channel state, keyed by
/// `(src << 32) | dst`: the network's overflow channels (sim::ChannelRows)
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

  /// True when inserting one more key would grow the table.
  bool full() const noexcept { return 2 * (size_ + 1) > slots_.size(); }

  /// Drops every entry whose value `keep` rejects and rehashes the rest.
  /// The slot count doubles when more than a quarter of it stays in use, so
  /// the next rebuild is at least a quarter of the slots of insertions
  /// away: amortised O(1) per insertion. A rebuild at the same size reuses
  /// a spare slot array, so it allocates nothing once that array exists.
  template <typename Keep>
  void retain(Keep keep) {
    std::size_t kept = 0;
    for (const Slot& slot : slots_) {
      kept += slot.key != kNoKey && keep(std::as_const(slot.value));
    }
    if (slots_.empty() || 4 * kept > slots_.size()) {
      grow(keep);
      return;
    }
    spare_.assign(slots_.size(), Slot{});
    spare_.swap(slots_);
    reinsert(spare_, keep);
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

  /// Doubles the slot count (64 at first use), keeping the entries `keep`
  /// accepts; the load factor stays at or below one half.
  template <typename Keep>
  void grow(Keep keep) {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    reinsert(old, keep);
  }
  void grow() {
    grow([](const Value&) { return true; });
  }

  /// Fills the empty slots_ with the entries of `from` that `keep` accepts.
  template <typename Keep>
  void reinsert(const std::vector<Slot>& from, Keep keep) {
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& slot : from) {
      if (slot.key == kNoKey || !keep(std::as_const(slot.value))) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kNoKey) i = (i + 1) & mask_;
      slots_[i] = slot;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  /// The slot array before the last same-size retain, reused by the next.
  std::vector<Slot> spare_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace dws::support
