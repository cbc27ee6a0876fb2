#include "sim/shard_group.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace hyperprof::sim {

namespace {

/** Canonical per-destination delivery order; unique per barrier. */
bool EnvelopeBefore(const ShardEnvelope& a, const ShardEnvelope& b) {
  if (a.deliver != b.deliver) return a.deliver < b.deliver;
  if (a.lane != b.lane) return a.lane < b.lane;
  return a.seq < b.seq;
}

}  // namespace

ShardGroup::ShardGroup(std::vector<Simulator*> kernels, SimTime window)
    : kernels_(std::move(kernels)),
      window_(window),
      staging_(kernels_.size() * kernels_.size()),
      inbox_(kernels_.size() * kernels_.size()),
      sources_(kernels_.size()),
      dests_(kernels_.size()),
      merge_scratch_(kernels_.size(),
                     std::vector<size_t>(kernels_.size(), 0)) {}

ShardGroup::~ShardGroup() {
  // Oversized payloads that were posted but never fired (teardown after
  // an error) still own their captures; run their deleters here. Fired
  // payloads destroyed themselves and set `done`.
  for (Source& src : sources_) {
    for (PayloadCell& cell : src.cells) {
      if (cell.in_flight && !cell.done && cell.destroy != nullptr) {
        cell.destroy(cell.mem.get());
      }
    }
  }
}

ShardGroup::PayloadCell* ShardGroup::AcquireCell(Source& src, size_t bytes) {
  std::vector<uint32_t>& free = src.free_cells;
  for (size_t i = 0; i < free.size(); ++i) {
    PayloadCell& cell = src.cells[free[i]];
    if (cell.capacity < bytes) continue;
    free[i] = free.back();
    free.pop_back();
    cell.in_flight = true;
    cell.done = false;
    ++src.cells_in_flight;
    return &cell;
  }
  ++src.allocs;
  src.cells.emplace_back();  // deque: existing cell addresses stay valid
  PayloadCell& cell = src.cells.back();
  // Round up so one warmed-up cell pool serves every payload shape.
  cell.capacity = std::max<size_t>(bytes, 128);
  cell.mem.reset(new unsigned char[cell.capacity]);
  cell.in_flight = true;
  ++src.cells_in_flight;
  return &cell;
}

void ShardGroup::SweepArenas() {
  for (Source& src : sources_) {
    if (src.cells_in_flight == 0) continue;
    for (uint32_t i = 0; i < src.cells.size(); ++i) {
      PayloadCell& cell = src.cells[i];
      if (!cell.in_flight || !cell.done) continue;
      cell.in_flight = false;
      cell.done = false;
      if (src.free_cells.size() == src.free_cells.capacity()) ++src.allocs;
      src.free_cells.push_back(i);
      --src.cells_in_flight;
    }
  }
}

bool ShardGroup::PlanEpoch(SimTime& deadline) {
  SimTime start = SimTime::Max();
  for (Simulator* kernel : kernels_) {
    start = std::min(start, kernel->next_event_time());
  }
  for (const std::vector<ShardEnvelope>& box : staging_) {
    // The head is the box's minimum: appends are deliver-monotone.
    if (!box.empty()) start = std::min(start, box.front().deliver);
  }
  if (start == SimTime::Max()) return false;  // global quiesce
  deadline = start + window_;
  return true;
}

void ShardGroup::SwapMailboxes() {
  for (size_t i = 0; i < staging_.size(); ++i) {
    // The inbox side was cleared by its destination last epoch, so the
    // swap also hands the source a warm, capacity-retaining vector.
    if (!staging_[i].empty()) staging_[i].swap(inbox_[i]);
  }
}

void ShardGroup::DeliverInbox(uint32_t to) {
  const size_t n = kernels_.size();
  std::vector<size_t>& cursor = merge_scratch_[to];
  size_t runs = 0;
  size_t only = 0;
  for (size_t s = 0; s < n; ++s) {
    std::vector<ShardEnvelope>& run = inbox_[s * n + to];
    cursor[s] = 0;
    if (run.empty()) continue;
    ++runs;
    only = s;
    // Appends are deliver-monotone, but same-instant posts from
    // different lanes can land out of lane order; restore the canonical
    // key then (the common case is the free is_sorted pass).
    if (!std::is_sorted(run.begin(), run.end(), EnvelopeBefore)) {
      std::sort(run.begin(), run.end(), EnvelopeBefore);
    }
  }
  if (runs == 0) return;
  Simulator* kernel = kernels_[to];
  Dest& dest = dests_[to];
  auto deliver = [&](ShardEnvelope& env) {
    if (env.deliver < kernel->Now()) ++dest.late;
    kernel->ScheduleAt(env.deliver, std::move(env.payload));
    ++dest.delivered;
  };
  if (runs == 1) {
    std::vector<ShardEnvelope>& run = inbox_[only * n + to];
    for (ShardEnvelope& env : run) deliver(env);
    run.clear();
    return;
  }
  // K-way merge by linear head scan; n is small (shards + 1). The key is
  // unique per destination, so the merged order — and with it the
  // kernel's same-instant tie-break — is independent of shard layout.
  for (;;) {
    size_t best = n;
    for (size_t s = 0; s < n; ++s) {
      const std::vector<ShardEnvelope>& run = inbox_[s * n + to];
      if (cursor[s] >= run.size()) continue;
      if (best == n ||
          EnvelopeBefore(run[cursor[s]], inbox_[best * n + to][cursor[best]])) {
        best = s;
      }
    }
    if (best == n) break;
    deliver(inbox_[best * n + to][cursor[best]++]);
  }
  for (size_t s = 0; s < n; ++s) inbox_[s * n + to].clear();
}

void ShardGroup::RunKernel(uint32_t k, SimTime deadline) {
  DeliverInbox(k);
  kernels_[k]->RunUntil(deadline);
}

/**
 * Executes Advance's "run every kernel to T" steps on one persistent
 * runner thread per kernel beyond the caller's, which runs the last
 * kernel. Lives for one Advance call: the destructor stops and joins the
 * runners, which every Step has parked again before it returns or throws.
 *
 * One-barrier-per-step ticket protocol. The caller publishes (deadline,
 * stop) and release-increments `ticket_`; runners observe the new ticket
 * (acquire), deliver their inbox, run their kernel to the deadline, and
 * release-increment `arrived_`. The caller's acquire loop on `arrived_`
 * then receives all their writes before it touches shared state (mailbox
 * flips, arena sweeps, counters).
 */
class ShardGroup::Runners {
 public:
  explicit Runners(ShardGroup& group)
      : group_(group),
        count_(static_cast<uint32_t>(group.kernels_.size() - 1)) {
    threads_.reserve(count_);
    try {
      for (uint32_t k = 0; k < count_; ++k) {
        threads_.emplace_back([this, k] { Loop(k); });
      }
    } catch (...) {
      Stop();  // a failed spawn must not leave started runners unjoined
      throw;
    }
  }

  Runners(const Runners&) = delete;
  Runners& operator=(const Runners&) = delete;

  ~Runners() { Stop(); }

  /** Runs every kernel to `deadline`; rethrows the first kernel failure. */
  void Step(SimTime deadline) {
    Publish(deadline, /*stop=*/false);
    std::exception_ptr caller_error;
    try {
      group_.RunKernel(count_, deadline);
    } catch (...) {
      caller_error = std::current_exception();
    }
    WaitArrivals();
    if (caller_error) std::rethrow_exception(caller_error);
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void Loop(uint32_t k) {
    uint64_t seen = 0;
    for (;;) {
      // Spin briefly (epochs are short), then park on the condvar.
      uint64_t t = ticket_.load(std::memory_order_acquire);
      for (int spin = 0; t == seen && spin < 4096; ++spin) {
        t = ticket_.load(std::memory_order_acquire);
      }
      if (t == seen) {
        std::unique_lock<std::mutex> lock(mutex_);
        ticket_cv_.wait(lock, [&] {
          return ticket_.load(std::memory_order_acquire) != seen;
        });
        t = ticket_.load(std::memory_order_acquire);
      }
      seen = t;
      if (stop_) return;
      try {
        group_.RunKernel(k, deadline_);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      if (arrived_.fetch_add(1, std::memory_order_release) + 1 == count_) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_one();
      }
    }
  }

  void Stop() {
    Publish(SimTime::Zero(), /*stop=*/true);
    for (std::thread& thread : threads_) thread.join();
  }

  void Publish(SimTime deadline, bool stop) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deadline_ = deadline;
      stop_ = stop;
      ticket_.fetch_add(1, std::memory_order_release);
    }
    ticket_cv_.notify_all();
  }

  void WaitArrivals() {
    uint32_t done = arrived_.load(std::memory_order_acquire);
    for (int spin = 0; done != count_ && spin < 65536; ++spin) {
      done = arrived_.load(std::memory_order_acquire);
    }
    if (done != count_) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return arrived_.load(std::memory_order_acquire) == count_;
      });
    }
    // Plain reset is published to runners by the next ticket increment.
    arrived_.store(0, std::memory_order_relaxed);
  }

  ShardGroup& group_;
  const uint32_t count_;
  std::mutex mutex_;
  std::condition_variable ticket_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint32_t> arrived_{0};
  SimTime deadline_;
  bool stop_ = false;
  std::exception_ptr error_;  // first runner failure, guarded by mutex_
  std::vector<std::thread> threads_;
};

bool ShardGroup::Advance(SimTime until, bool parallel) {
  std::optional<Runners> runners;
  if (parallel && kernels_.size() > 1) runners.emplace(*this);
  auto run_kernels = [&](SimTime deadline) {
    if (runners) {
      runners->Step(deadline);
    } else {
      for (uint32_t k = 0; k < kernels_.size(); ++k) RunKernel(k, deadline);
    }
  };
  for (;;) {
    if (!epoch_open_) {
      SweepArenas();
      SimTime deadline;
      if (!PlanEpoch(deadline)) {
        // Global quiesce: a final drain pops stale cancelled heap entries
        // (RunUntil stops scanning at its deadline), so kernels report a
        // clean quiesce.
        for (Simulator* kernel : kernels_) kernel->Run();
        SweepArenas();
        return false;
      }
      SwapMailboxes();
      epoch_open_ = true;
      epoch_deadline_ = deadline;
    }
    if (epoch_deadline_ > until) {
      // Pause inside the epoch: run every kernel to the horizon but keep
      // the epoch open — no mailbox flip, no re-plan — so resuming closes
      // it at its original deadline. DeliverInbox is a no-op on re-entry
      // (the first partial run cleared the inboxes), so the merged
      // delivery order is exactly the one-shot order.
      run_kernels(until);
      return true;
    }
    run_kernels(epoch_deadline_);
    ++epochs_;
    epoch_open_ = false;
  }
}

uint64_t ShardGroup::messages_posted() const {
  uint64_t total = 0;
  for (const Source& src : sources_) total += src.posted;
  return total;
}

uint64_t ShardGroup::messages_delivered() const {
  uint64_t total = 0;
  for (const Dest& dest : dests_) total += dest.delivered;
  return total;
}

size_t ShardGroup::undelivered() const {
  return static_cast<size_t>(messages_posted() - messages_delivered());
}

uint64_t ShardGroup::exchange_allocs() const {
  uint64_t total = 0;
  for (const Source& src : sources_) total += src.allocs;
  return total;
}

uint64_t ShardGroup::late_deliveries() const {
  uint64_t total = 0;
  for (const Dest& dest : dests_) total += dest.late;
  return total;
}

}  // namespace hyperprof::sim
