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

constexpr uint64_t kKeys = 512;

// Straightforward list+map LRU with the documented semantics, used as the
// oracle for the open-addressing implementation.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Touch(uint64_t id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
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

  bool Contains(uint64_t id) const { return map_.count(id) > 0; }
  uint64_t used() const { return used_; }
  size_t size() const { return map_.size(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t hits() const { return hits_; }

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
  uint64_t hits_ = 0;
};

::testing::AssertionResult SameCounters(const LruCache& cache,
                                        const ReferenceLru& ref) {
  if (cache.used_bytes() == ref.used() && cache.entry_count() == ref.size() &&
      cache.evictions() == ref.evictions() && cache.hits() == ref.hits()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "used " << cache.used_bytes() << " vs " << ref.used()
         << ", entries " << cache.entry_count() << " vs " << ref.size()
         << ", evictions " << cache.evictions() << " vs " << ref.evictions()
         << ", hits " << cache.hits() << " vs " << ref.hits();
}

// One random Touch or Insert over [0, kKeys) on both models: the results
// and every counter must agree. Marks the id in `seen`.
::testing::AssertionResult ChurnStep(std::mt19937_64& rng, LruCache& cache,
                                     ReferenceLru& ref,
                                     std::vector<bool>& seen) {
  const uint64_t id = rng() % kKeys;
  seen[id] = true;
  bool got = false, want = false;
  if (rng() % 3 == 0) {
    got = cache.Touch(id);
    want = ref.Touch(id);
  } else {
    const uint64_t bytes = 1 + rng() % 300;
    got = cache.Insert(id, bytes);
    want = ref.Insert(id, bytes);
  }
  if (got != want) {
    return ::testing::AssertionFailure() << "id " << id << " returned " << got;
  }
  return SameCounters(cache, ref);
}

// Home server of an id for the warm-set filter, over kServers servers.
constexpr uint32_t kServers = 3;
uint32_t Home(uint64_t id) {
  return static_cast<uint32_t>((id * 0x9e3779b97f4a7c15ull >> 32) % kServers);
}

}  // namespace

TEST(LruCacheTest, MatchesReferenceModelUnderChurn) {
  // Heavy mixed workload over a small key space so hits, refreshes and
  // evictions all fire constantly; every observable must track the oracle
  // exactly, including eviction order.
  std::mt19937_64 rng(1234);
  std::vector<bool> seen(kKeys);
  {
    LruCache cache(4096);
    ReferenceLru ref(4096);
    for (int step = 0; step < 200000; ++step) {
      ASSERT_TRUE(ChurnStep(rng, cache, ref, seen)) << "step " << step;
    }
    for (uint64_t id = 0; id < kKeys; ++id) {
      ASSERT_EQ(cache.Contains(id), ref.Contains(id)) << "id " << id;
    }
  }

  // Lazily warmed caches against references warmed by ascending Inserts:
  // each server's cache holds the ids below kWarmLimit homed on it. The
  // capacities make the tail overflow at prewarm, let churn consume it
  // mid-run, and evict nothing at all.
  constexpr uint64_t kWarmLimit = 384, kWarmBytes = 64;
  enum Shape { kOverflows, kConsumed, kNoEvictions };
  const std::pair<Shape, uint64_t> shapes[] = {
      {kOverflows, 4096}, {kConsumed, 12000}, {kNoEvictions, 1 << 20}};
  for (const auto& [shape, capacity] : shapes) {
    for (uint32_t server = 0; server < kServers; ++server) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << " server " << server);
      const auto member = [server](uint64_t id) {
        return Home(id) == server;
      };
      LruCache cache(capacity);
      ReferenceLru ref(capacity);
      std::vector<uint64_t> members;
      for (uint64_t id = 0; id < kWarmLimit; ++id) {
        if (!member(id)) continue;
        members.push_back(id);
        ref.Insert(id, kWarmBytes);
      }
      cache.Prewarm(kWarmLimit, members.size(), kWarmBytes, member);
      ASSERT_TRUE(SameCounters(cache, ref));
      EXPECT_EQ(ref.evictions() > 0, shape == kOverflows);

      // The largest members survive any overflow, so the cursor has not
      // passed them: a Touch installs one at MRU ahead of the cursor, and
      // both it and an untouched neighbour stay resident.
      const uint64_t untouched = members.back();
      const uint64_t installed = members[members.size() - 2];
      ASSERT_TRUE(ref.Contains(installed));
      EXPECT_EQ(cache.Touch(installed), ref.Touch(installed));
      for (const uint64_t id : {untouched, installed}) {
        EXPECT_TRUE(ref.Contains(id));
        EXPECT_TRUE(cache.Contains(id)) << "id " << id;
      }
      ASSERT_TRUE(SameCounters(cache, ref));

      seen.assign(kKeys, false);
      for (int step = 0; step < 40000; ++step) {
        ASSERT_TRUE(ChurnStep(rng, cache, ref, seen)) << "step " << step;
        if (step == 1000 && shape == kConsumed) {
          // By now eviction has consumed the tail: no member the churn
          // has not reached is still resident.
          int unseen = 0;
          for (const uint64_t id : members) {
            if (seen[id]) continue;
            ++unseen;
            EXPECT_FALSE(ref.Contains(id)) << "id " << id;
          }
          EXPECT_GT(unseen, 0);
        }
      }
      for (uint64_t id = 0; id < kKeys; ++id) {
        ASSERT_EQ(cache.Contains(id), ref.Contains(id)) << "id " << id;
      }
      EXPECT_EQ(ref.evictions() == 0, shape == kNoEvictions);
    }
  }
}

}  // namespace
}  // namespace hyperprof::storage
