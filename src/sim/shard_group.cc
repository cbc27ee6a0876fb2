#include "sim/shard_group.h"

#include <algorithm>
#include <utility>

namespace hyperprof::sim {

namespace {

/** Canonical per-destination delivery order; unique per epoch. */
bool EnvelopeBefore(const ShardEnvelope& a, const ShardEnvelope& b) {
  if (a.deliver != b.deliver) return a.deliver < b.deliver;
  if (a.lane != b.lane) return a.lane < b.lane;
  return a.seq < b.seq;
}

}  // namespace

ShardGroup::ShardGroup(std::vector<Simulator*> kernels, SimTime window)
    : kernels_(std::move(kernels)),
      window_(window),
      mailboxes_(kernels_.size() * kernels_.size()),
      cursors_(kernels_.size(), 0) {}

bool ShardGroup::PlanEpoch(SimTime& deadline) {
  SimTime start = SimTime::Max();
  for (Simulator* kernel : kernels_) {
    start = std::min(start, kernel->next_event_time());
  }
  for (const std::vector<ShardEnvelope>& box : mailboxes_) {
    // The head is the box's minimum: appends are deliver-monotone.
    if (!box.empty()) start = std::min(start, box.front().deliver);
  }
  if (start == SimTime::Max()) return false;  // global quiesce
  deadline = start + window_;
  return true;
}

void ShardGroup::Deliver(uint32_t to) {
  const size_t n = kernels_.size();
  size_t runs = 0;
  size_t only = 0;
  for (size_t s = 0; s < n; ++s) {
    std::vector<ShardEnvelope>& run = mailboxes_[s * n + to];
    cursors_[s] = 0;
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
  auto deliver = [&](ShardEnvelope& env) {
    if (env.deliver < kernel->Now()) ++late_;
    kernel->ScheduleAt(env.deliver, std::move(env.payload));
    ++delivered_;
  };
  if (runs == 1) {
    std::vector<ShardEnvelope>& run = mailboxes_[only * n + to];
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
      const std::vector<ShardEnvelope>& run = mailboxes_[s * n + to];
      if (cursors_[s] >= run.size()) continue;
      if (best == n ||
          EnvelopeBefore(run[cursors_[s]],
                         mailboxes_[best * n + to][cursors_[best]])) {
        best = s;
      }
    }
    if (best == n) break;
    deliver(mailboxes_[best * n + to][cursors_[best]++]);
  }
  for (size_t s = 0; s < n; ++s) mailboxes_[s * n + to].clear();
}

void ShardGroup::RunKernels(SimTime deadline) {
  for (Simulator* kernel : kernels_) kernel->RunUntil(deadline);
}

bool ShardGroup::Advance(SimTime until) {
  for (;;) {
    if (!epoch_open_) {
      SimTime deadline;
      if (!PlanEpoch(deadline)) {
        // Global quiesce: a final drain pops stale cancelled heap entries
        // (RunUntil stops scanning at its deadline), so kernels report a
        // clean quiesce.
        for (Simulator* kernel : kernels_) kernel->Run();
        return false;
      }
      for (uint32_t k = 0; k < kernels_.size(); ++k) Deliver(k);
      epoch_open_ = true;
      epoch_deadline_ = deadline;
    }
    if (epoch_deadline_ > until) {
      // Pause inside the epoch: run every kernel to the horizon but keep
      // the epoch open — no delivery, no re-plan — so resuming closes it
      // at its original deadline, and envelopes posted meanwhile wait for
      // the next epoch exactly as in a one-shot run.
      RunKernels(until);
      return true;
    }
    RunKernels(epoch_deadline_);
    ++epochs_;
    epoch_open_ = false;
  }
}

}  // namespace hyperprof::sim
