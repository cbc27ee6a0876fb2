#ifndef HYPERPROF_COMMON_RECORD_POOL_H_
#define HYPERPROF_COMMON_RECORD_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hyperprof {

/**
 * Recycled per-operation records behind intrusive reference counts: the
 * allocation-free stand-in for make_shared on the simulation's run path.
 *
 * Acquire hands out a record through a Ref, an 8-byte copyable handle with
 * shared_ptr semantics: the record goes back to the pool when its last Ref
 * dies, so a closure that captures a Ref keeps the record exactly as long
 * as a captured shared_ptr would have. On the way back the pool calls
 * `T::Recycle()`, which drops what the record holds on behalf of its
 * user, such as callbacks and the handles they capture.
 * Every other field keeps what its last user left: Acquire's caller
 * re-initialises the fields it reads, and containers keep their capacity.
 * The pool grows to the high-water mark of live records and then never
 * allocates again.
 *
 * Destroying the pool deletes its idle records and hands each live one to
 * its Refs, the last of which deletes it — so an event queue may outlive
 * the system that owns the pool. Counts are not atomic: a record and
 * every Ref to it are used from one thread at a time.
 */
template <typename T>
class RecordPool {
  struct Node {
    T value;
    RecordPool* pool = nullptr;  // null once the pool is gone
    Node* next_free = nullptr;
    uint32_t refs = 0;
  };

 public:
  /** Counted handle on one record. */
  class Ref {
   public:
    Ref() = default;
    // noexcept also on copy: a closure that captures a const Ref moves
    // it by copying, and only a nothrow move stays in an InlineFunction's
    // buffer.
    Ref(const Ref& other) noexcept : node_(other.node_) {
      if (node_ != nullptr) ++node_->refs;
    }
    Ref(Ref&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    Ref& operator=(Ref other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~Ref() { Drop(); }

    T* operator->() const { return &node_->value; }
    T& operator*() const { return node_->value; }

   private:
    friend class RecordPool;
    explicit Ref(Node* node) : node_(node) { ++node_->refs; }

    void Drop() {
      Node* node = std::exchange(node_, nullptr);
      if (node == nullptr || --node->refs > 0) return;
      if (node->pool == nullptr) {
        delete node;
        return;
      }
      node->pool->Recycle(node);
    }

    Node* node_ = nullptr;
  };

  RecordPool() = default;
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  ~RecordPool() {
    for (std::unique_ptr<Node>& node : nodes_) {
      if (node->refs > 0) {
        node->pool = nullptr;
        node.release();  // now owned by its Refs
      }
    }
  }

  /** A recycled record, or a new default-constructed one. */
  Ref Acquire() {
    Node* node = free_;
    if (node != nullptr) {
      free_ = node->next_free;
    } else {
      node = nodes_.emplace_back(std::make_unique<Node>()).get();
      node->pool = this;
    }
    return Ref(node);
  }

 private:
  void Recycle(Node* node) {
    node->value.Recycle();
    node->next_free = free_;
    free_ = node;
  }

  std::vector<std::unique_ptr<Node>> nodes_;
  Node* free_ = nullptr;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_RECORD_POOL_H_
