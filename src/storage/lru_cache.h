#ifndef HYPERPROF_STORAGE_LRU_CACHE_H_
#define HYPERPROF_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
 * with an intrusive doubly-linked LRU list threaded through slot indices.
 * Evicted slots return to a free list, and the table and slot array grow
 * by amortized doubling, so Touch and Insert allocate only when the
 * installed entries reach a new high. A cache started warm (Prewarm)
 * keeps its untouched warm entries as an implicit LRU tail with no index
 * entries: a warm entry's first Touch or Insert installs it, so the index
 * grows with what a run touches rather than with the warm set.
 */
class LruCache {
 public:
  /** Warm-set membership test; see Prewarm. */
  using WarmFilter = std::function<bool(uint64_t block_id)>;

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

  /** Residency check without LRU promotion. */
  bool Contains(uint64_t block_id) const;

  /**
   * Starts an empty cache warm: every observable (Touch/Insert results,
   * Contains, used_bytes, entry_count, hits, misses, evictions)
   * then follows the cache that Insert(id, bytes) of each id below `limit`
   * that `member` accepts, in ascending order, would have left — `count`
   * ids, which the caller has counted. No index entry is built: untouched
   * warm entries stay the LRU tail, smallest id oldest, until a Touch or
   * Insert installs one at MRU or eviction consumes it. `member` is called
   * with ids below `limit` and must stay valid while the tail lasts.
   * Aborts if the cache holds entries: the tail is exact only behind an
   * empty LRU list.
   */
  void Prewarm(uint64_t limit, uint64_t count, uint64_t bytes,
               WarmFilter member);

  /** Bytes reserved by the index, the slot array and the free list. */
  size_t memory_bytes() const;

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t entry_count() const { return indexed_ + warm_left_; }

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
  bool InWarmTail(uint64_t block_id) const;
  void Unlink(uint32_t slot);
  void LinkFront(uint32_t slot);
  void EraseCell(size_t cell);
  void RemoveSlot(uint32_t slot);
  void Install(uint64_t block_id, uint64_t bytes);
  void DropFromTail();
  void EvictUntilFits(uint64_t incoming_bytes);
  void Rehash(size_t cells);

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;  // installed entries and the warm tail
  size_t indexed_ = 0;       // installed entries
  std::vector<uint32_t> table_;  // cell holds slot index + 1; 0 = empty
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t head_ = kNil;  // MRU
  uint32_t tail_ = kNil;  // LRU
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

  // The implicit warm tail, older than every installed entry: the ids in
  // [warm_next_, warm_limit_) that warm_member_ accepts, minus installed
  // ones, warm_bytes_ each. warm_left_ counts them; 0 means no tail. An
  // installed id leaves the cache only by eviction, which empties the
  // tail before it takes any installed entry, so an id that is neither
  // installed nor below the cursor is in the tail iff the filter takes it.
  WarmFilter warm_member_;
  uint64_t warm_next_ = 0;  // eviction cursor: no tail id lies below it
  uint64_t warm_limit_ = 0;
  uint64_t warm_bytes_ = 0;
  size_t warm_left_ = 0;
};

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_LRU_CACHE_H_
