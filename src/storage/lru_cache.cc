#include "storage/lru_cache.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace hyperprof::storage {

namespace {
constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr size_t kInitialTableCells = 16;
}  // namespace

LruCache::LruCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

uint64_t LruCache::Mix(uint64_t x) {
  // splitmix64 finalizer: block ids are often sequential, so the table
  // needs real avalanche before masking down to a probe start.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t LruCache::FindCell(uint64_t block_id) const {
  if (table_.empty()) return kNpos;
  const size_t mask = table_.size() - 1;
  size_t cell = Mix(block_id) & mask;
  while (true) {
    const uint32_t v = table_[cell];
    if (v == 0) return kNpos;
    if (slots_[v - 1].block_id == block_id) return cell;
    cell = (cell + 1) & mask;
  }
}

bool LruCache::InWarmTail(uint64_t block_id) const {
  // Meaningful only for an id with no index entry: an installed id has
  // left the tail even while the cursor has not reached it.
  return warm_left_ > 0 && block_id >= warm_next_ &&
         block_id < warm_limit_ && warm_member_(block_id);
}

void LruCache::Unlink(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = kNil;
  s.next = kNil;
}

void LruCache::LinkFront(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void LruCache::EraseCell(size_t cell) {
  // Backward-shift deletion keeps probe chains tombstone-free, so lookup
  // cost stays bounded by live load factor no matter how much churn the
  // eviction loop generates.
  const size_t mask = table_.size() - 1;
  size_t hole = cell;
  size_t probe = cell;
  while (true) {
    probe = (probe + 1) & mask;
    const uint32_t v = table_[probe];
    if (v == 0) break;
    const size_t home = Mix(slots_[v - 1].block_id) & mask;
    const bool home_in_gap = hole <= probe
                                 ? (home > hole && home <= probe)
                                 : (home > hole || home <= probe);
    if (!home_in_gap) {
      table_[hole] = v;
      hole = probe;
    }
  }
  table_[hole] = 0;
}

void LruCache::RemoveSlot(uint32_t slot) {
  const size_t cell = FindCell(slots_[slot].block_id);
  used_bytes_ -= slots_[slot].bytes;
  Unlink(slot);
  EraseCell(cell);
  free_slots_.push_back(slot);
  --indexed_;
}

void LruCache::Install(uint64_t block_id, uint64_t bytes) {
  // Max load factor 1/2: cells are 4 bytes, so doubling early buys short
  // probe chains for almost nothing.
  if ((indexed_ + 1) * 2 > table_.size()) {
    Rehash(table_.empty() ? kInitialTableCells : table_.size() * 2);
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].block_id = block_id;
  slots_[slot].bytes = bytes;
  LinkFront(slot);
  const size_t mask = table_.size() - 1;
  size_t at = Mix(block_id) & mask;
  while (table_[at] != 0) at = (at + 1) & mask;
  table_[at] = slot + 1;
  used_bytes_ += bytes;
  ++indexed_;
}

void LruCache::DropFromTail() {
  --warm_left_;
  used_bytes_ -= warm_bytes_;
}

void LruCache::EvictUntilFits(uint64_t incoming_bytes) {
  while (used_bytes_ + incoming_bytes > capacity_bytes_) {
    if (warm_left_ > 0) {
      // The warm tail is older than every installed entry, and its oldest
      // is its smallest id.
      while (!InWarmTail(warm_next_) || FindCell(warm_next_) != kNpos) {
        ++warm_next_;
      }
      ++warm_next_;
      DropFromTail();
    } else if (tail_ != kNil) {
      RemoveSlot(tail_);
    } else {
      break;
    }
    ++evictions_;
  }
}

void LruCache::Rehash(size_t cells) {
  std::vector<uint32_t> fresh(cells, 0);
  const size_t mask = cells - 1;
  for (const uint32_t v : table_) {
    if (v == 0) continue;
    size_t at = Mix(slots_[v - 1].block_id) & mask;
    while (fresh[at] != 0) at = (at + 1) & mask;
    fresh[at] = v;
  }
  table_.swap(fresh);
}

bool LruCache::Touch(uint64_t block_id) {
  const size_t cell = FindCell(block_id);
  if (cell != kNpos) {
    ++hits_;
    const uint32_t slot = table_[cell] - 1;
    if (head_ != slot) {
      Unlink(slot);
      LinkFront(slot);
    }
    return true;
  }
  if (InWarmTail(block_id)) {
    // A warm entry's first hit installs it at MRU, where the hit moves it.
    ++hits_;
    DropFromTail();
    Install(block_id, warm_bytes_);
    return true;
  }
  ++misses_;
  return false;
}

bool LruCache::Insert(uint64_t block_id, uint64_t bytes) {
  if (bytes > capacity_bytes_) return false;
  const size_t cell = FindCell(block_id);
  if (cell != kNpos) {
    const uint32_t slot = table_[cell] - 1;
    used_bytes_ -= slots_[slot].bytes;
    slots_[slot].bytes = bytes;
    used_bytes_ += bytes;
    if (head_ != slot) {
      Unlink(slot);
      LinkFront(slot);
    }
    EvictUntilFits(0);
    return true;
  }
  if (InWarmTail(block_id)) {
    // Refreshing a warm entry installs it at MRU with its new size.
    DropFromTail();
    Install(block_id, bytes);
    EvictUntilFits(0);
    return true;
  }
  EvictUntilFits(bytes);
  Install(block_id, bytes);
  return true;
}

bool LruCache::Contains(uint64_t block_id) const {
  return FindCell(block_id) != kNpos || InWarmTail(block_id);
}

void LruCache::Prewarm(uint64_t limit, uint64_t count, uint64_t bytes,
                       WarmFilter member) {
  if (entry_count() != 0) {
    std::fprintf(stderr,
                 "LruCache::Prewarm: the cache already holds %zu entries; "
                 "a warm tail is exact only for an empty cache\n",
                 entry_count());
    std::abort();
  }
  // Insert admits no block larger than the cache and evicts nothing for it.
  if (count == 0 || bytes > capacity_bytes_) return;
  warm_member_ = std::move(member);
  warm_next_ = 0;
  warm_limit_ = limit;
  warm_bytes_ = bytes;
  warm_left_ = count;
  used_bytes_ = count * bytes;
  // Ascending inserts evict their smallest ids until the rest fit.
  EvictUntilFits(0);
}

size_t LruCache::memory_bytes() const {
  return table_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(uint32_t);
}

double LruCache::HitRate() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace hyperprof::storage
