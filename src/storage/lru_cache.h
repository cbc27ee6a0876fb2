#ifndef HYPERPROF_STORAGE_LRU_CACHE_H_
#define HYPERPROF_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof::storage {

/**
 * Byte-capacity LRU cache over opaque block ids.
 *
 * Tracks only residency (id -> size); the simulated data itself has no
 * contents. Eviction is strict LRU by last touch. Used as the RAM read
 * cache and the SSD flash cache of the tiered store.
 *
 * Storage is a linear-probing open-addressing table over recycled slots
 * with an intrusive doubly-linked LRU list threaded through slot indices:
 * a warmed cache performs Touch/Insert/Erase with no heap allocation
 * (evicted slots return to a free list; the table only ever grows).
 */
class LruCache {
 public:
  /** @param capacity_bytes Total bytes the cache may hold (>= 0). */
  explicit LruCache(uint64_t capacity_bytes);

  /**
   * Looks up a block, promoting it to MRU on hit.
   * @return true on hit.
   */
  bool Touch(uint64_t block_id);

  /**
   * Inserts (or refreshes) a block of the given size, evicting LRU entries
   * until it fits. Blocks larger than the whole cache are not admitted.
   * @return true if the block is resident after the call.
   */
  bool Insert(uint64_t block_id, uint64_t bytes);

  /** Removes a block if present; returns true if it was resident. */
  bool Erase(uint64_t block_id);

  /** Residency check without LRU promotion. */
  bool Contains(uint64_t block_id) const;

  /**
   * Sizes the index so `entries` resident blocks fit without a rehash.
   * Only the index: the slot array keeps its amortized growth, whose
   * headroom absorbs a warmed cache's first new blocks (a slot array
   * reserved exactly would reallocate on the first of them).
   */
  void Reserve(size_t entries);

  /** Bytes reserved by the index, the slot array and the free list. */
  size_t memory_bytes() const;

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t entry_count() const { return entry_count_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /** Hit fraction over all Touch calls (0 when never touched). */
  double HitRate() const;

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Slot {
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    uint32_t prev = kNil;  // toward MRU
    uint32_t next = kNil;  // toward LRU
  };

  static uint64_t Mix(uint64_t x);
  size_t FindCell(uint64_t block_id) const;
  void Unlink(uint32_t slot);
  void LinkFront(uint32_t slot);
  void EraseCell(size_t cell);
  void RemoveSlot(uint32_t slot);
  void EvictUntilFits(uint64_t incoming_bytes);
  void Rehash(size_t cells);

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  size_t entry_count_ = 0;
  std::vector<uint32_t> table_;  // cell holds slot index + 1; 0 = empty
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t head_ = kNil;  // MRU
  uint32_t tail_ = kNil;  // LRU
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_LRU_CACHE_H_
