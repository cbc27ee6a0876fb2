#include "storage/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hyperprof::storage {
namespace {

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(1024);
  EXPECT_FALSE(cache.Touch(1));
  cache.Insert(1, 100);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(3, 100);
  cache.Touch(1);          // 1 is now MRU; 2 is LRU
  cache.Insert(4, 100);    // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedBlockNotAdmitted) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Insert(1, 200));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, ReinsertUpdatesSize) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(1, 250);
  EXPECT_EQ(cache.used_bytes(), 250u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, ReinsertLargerEvictsOthers) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(2, 250);  // 1 must go
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_LE(cache.used_bytes(), 300u);
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(300);
  cache.Insert(1, 100);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, ContainsDoesNotPromote) {
  LruCache cache(200);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  // Contains(1) must not promote 1; inserting 3 should evict 1 (LRU).
  EXPECT_TRUE(cache.Contains(1));
  cache.Insert(3, 100);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, MultipleEvictionsToFit) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(3, 100);
  cache.Insert(4, 300);  // evicts all three
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.evictions(), 3u);
}

TEST(LruCacheTest, ZeroCapacityAdmitsNothing) {
  LruCache cache(0);
  EXPECT_FALSE(cache.Insert(1, 1));
  EXPECT_FALSE(cache.Touch(1));
}

namespace {

// Straightforward list+map LRU with the documented semantics, used as the
// oracle for the open-addressing implementation.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Touch(uint64_t id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  bool Insert(uint64_t id, uint64_t bytes) {
    if (bytes > capacity_) return false;
    auto it = map_.find(id);
    if (it != map_.end()) {
      used_ -= it->second->second;
      it->second->second = bytes;
      used_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      Evict(0);
      return true;
    }
    Evict(bytes);
    lru_.emplace_front(id, bytes);
    map_[id] = lru_.begin();
    used_ += bytes;
    return true;
  }

  bool Erase(uint64_t id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    used_ -= it->second->second;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  bool Contains(uint64_t id) const { return map_.count(id) > 0; }
  uint64_t used() const { return used_; }
  size_t size() const { return map_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  void Evict(uint64_t incoming) {
    while (!lru_.empty() && used_ + incoming > capacity_) {
      used_ -= lru_.back().second;
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<std::pair<uint64_t, uint64_t>> lru_;
  std::unordered_map<uint64_t, decltype(lru_)::iterator> map_;
  uint64_t evictions_ = 0;
};

}  // namespace

TEST(LruCacheTest, MatchesReferenceModelUnderChurn) {
  // Heavy mixed workload over a small key space so hits, refreshes,
  // evictions, and erases all fire constantly; every observable must track
  // the oracle exactly, including eviction order. A second cache runs the
  // same workload on a Reserve'd index (resized again mid-run), which
  // must not change any observable either.
  LruCache plain(4096);
  LruCache reserved(4096);
  reserved.Reserve(64);
  const std::vector<LruCache*> caches = {&plain, &reserved};
  ReferenceLru ref(4096);
  std::mt19937_64 rng(1234);
  for (int step = 0; step < 200000; ++step) {
    if (step == 100000) reserved.Reserve(1024);
    const uint64_t id = rng() % 512;
    switch (rng() % 4) {
      case 0: {
        const bool hit = ref.Touch(id);
        for (LruCache* cache : caches) EXPECT_EQ(cache->Touch(id), hit);
        break;
      }
      case 1:
      case 2: {
        const uint64_t bytes = 1 + rng() % 300;
        const bool resident = ref.Insert(id, bytes);
        for (LruCache* cache : caches) {
          EXPECT_EQ(cache->Insert(id, bytes), resident);
        }
        break;
      }
      case 3: {
        const bool erased = ref.Erase(id);
        for (LruCache* cache : caches) EXPECT_EQ(cache->Erase(id), erased);
        break;
      }
    }
    for (const LruCache* cache : caches) {
      ASSERT_EQ(cache->used_bytes(), ref.used());
      ASSERT_EQ(cache->entry_count(), ref.size());
      ASSERT_EQ(cache->evictions(), ref.evictions());
    }
  }
  for (const LruCache* cache : caches) {
    for (uint64_t id = 0; id < 512; ++id) {
      ASSERT_EQ(cache->Contains(id), ref.Contains(id)) << "id " << id;
    }
  }
}

}  // namespace
}  // namespace hyperprof::storage
