#include "serve/front_door.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace hyperprof::serve {

namespace {

/** Most-recent windows returned per kWindows request. */
constexpr int64_t kWindowsLimit = 8;

}  // namespace

VirtualFrontDoor::VirtualFrontDoor(FrontDoorOptions options)
    : options_(std::move(options)) {
  // Serving invariants on the fleet config: no batch workload, fused
  // platforms only (see FrontDoorOptions). Checked in every build: a
  // sharded fleet would route every admission into one worker shard.
  options_.fleet.queries_per_platform = 0;
  if (options_.fleet.shards_per_platform != 0) {
    std::fprintf(stderr,
                 "VirtualFrontDoor: shards_per_platform is %u; serving "
                 "requires fused platforms (0)\n",
                 options_.fleet.shards_per_platform);
    std::abort();
  }
  fleet_ = std::make_unique<platforms::FleetSimulation>(options_.fleet);
}

VirtualFrontDoor::~VirtualFrontDoor() = default;

void VirtualFrontDoor::AddPlatform(platforms::PlatformSpec spec) {
  fleet_->AddPlatform(std::move(spec));
}

void VirtualFrontDoor::AddDefaultPlatforms() {
  fleet_->AddDefaultPlatforms();
}

void VirtualFrontDoor::Start() {
  assert(!started_);
  started_ = true;
  fleet_->Start();
  // Every engine completes ticketed queries straight into this door;
  // registration is a function pointer + context, nothing allocated.
  for (size_t i = 0; i < fleet_->platform_count(); ++i) {
    fleet_->MutableEngineOf(i).SetServingSink(&EngineSinkThunk, this);
  }
}

void VirtualFrontDoor::EngineSinkThunk(void* ctx, uint64_t ticket,
                                       SimTime latency) {
  static_cast<VirtualFrontDoor*>(ctx)->OnEngineComplete(ticket, latency);
}

void VirtualFrontDoor::OnEngineComplete(uint64_t ticket, SimTime latency) {
  ++counters_.completed;
  ++counters_.responses;
  Response response;
  response.status = ResponseStatus::kOk;
  response.latency_nanos = static_cast<uint64_t>(latency.nanos());
  sink_->OnResponse(ticket, response);
}

void VirtualFrontDoor::SubmitTicketed(const Request& request,
                                      uint64_t ticket) {
  assert(started_ && !finished_);
  assert(sink_ != nullptr && "set_sink before SubmitTicketed");
  Response response;
  response.id = request.id;
  if (request.platform >= fleet_->platform_count()) {
    response.status = ResponseStatus::kError;
    sink_->OnResponse(ticket, response);
    return;
  }
  switch (request.kind) {
    case RequestKind::kWindows:
      FillWindows(request, &response);
      sink_->OnResponse(ticket, response);
      return;
    case RequestKind::kStats:
      FillStats(&response);
      sink_->OnResponse(ticket, response);
      return;
    case RequestKind::kQuery:
      break;
  }
  ++counters_.offered;
  if (counters_.in_flight() >= options_.max_in_flight) {
    // Load shedding: refuse at the door instead of queueing into an
    // ever-growing backlog. The client sees an immediate kShed and can
    // back off; the simulation stays at its admission bound.
    ++counters_.shed;
    response.status = ResponseStatus::kShed;
    sink_->OnResponse(ticket, response);
    return;
  }
  ++counters_.admitted;
  fleet_->MutableEngineOf(request.platform).Submit(ticket);
}

void VirtualFrontDoor::SubmitTicketedBatch(const Request* requests,
                                           const uint64_t* tickets,
                                           size_t count) {
  for (size_t i = 0; i < count; ++i) SubmitTicketed(requests[i], tickets[i]);
}

bool VirtualFrontDoor::Pump(SimTime until) {
  assert(started_ && !finished_);
  if (until < virtual_now_) until = virtual_now_;
  virtual_now_ = until;
  return fleet_->Advance(until);
}

void VirtualFrontDoor::Finish() {
  assert(started_ && !finished_);
  // Run the fleet to quiesce first so every in-flight completion fires
  // (and its response with it) before the post-run merges.
  fleet_->Advance(SimTime::Max());
  finished_ = true;
  fleet_->Finish();
}

void VirtualFrontDoor::FillWindows(const Request& request,
                                   Response* response) {
  const profiling::ContinuousProfiler* profiler =
      fleet_->ContinuousOf(request.platform);
  if (profiler == nullptr) {
    response->status = ResponseStatus::kError;  // continuous disabled
    return;
  }
  // Most recent populated windows, oldest first, capped at kWindowsLimit.
  const int64_t last = profiler->last_window();
  int64_t first = profiler->first_window();
  if (last >= 0) {
    first = std::max(first, last - kWindowsLimit + 1);
    for (int64_t index = first; index <= last; ++index) {
      const profiling::WindowSlot* slot = profiler->WindowAt(index);
      if (slot == nullptr || slot->empty()) continue;
      WindowSummary window;
      window.index = slot->index;
      window.queries = slot->queries;
      constexpr size_t kLatency =
          static_cast<size_t>(profiling::WindowCategory::kLatency);
      constexpr size_t kCpu =
          static_cast<size_t>(profiling::WindowCategory::kCpu);
      window.latency_total_nanos = slot->total_nanos[kLatency];
      window.cpu_total_nanos = slot->total_nanos[kCpu];
      window.latency_p50 = slot->sketches[kLatency].Quantile(0.5);
      window.latency_p99 = slot->sketches[kLatency].Quantile(0.99);
      response->windows.push_back(window);
    }
  }
}

void VirtualFrontDoor::FillStats(Response* response) {
  response->has_stats = true;
  response->stats.offered = counters_.offered;
  response->stats.admitted = counters_.admitted;
  response->stats.shed = counters_.shed;
  response->stats.completed = counters_.completed;
  response->stats.in_flight = counters_.in_flight();
  response->stats.responses = counters_.responses;
  response->stats.virtual_nanos = static_cast<uint64_t>(virtual_now_.nanos());
  response->stats.serve_allocs =
      serve_allocs_counter_ != nullptr ? *serve_allocs_counter_ : 0;
}

}  // namespace hyperprof::serve
