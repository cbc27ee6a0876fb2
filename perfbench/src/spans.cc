#include "spans.h"

#include <time.h>

#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace {

SpanRecorder* g_active = nullptr;

int64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

SpanRecorder* ActiveSpans() { return g_active; }
void SetActiveSpans(SpanRecorder* recorder) { g_active = recorder; }

uint32_t SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.start_ns = NowNanos();
  spans_.push_back(span);
  open_ = static_cast<uint32_t>(spans_.size() - 1);
  return open_;
}

void SpanRecorder::End(uint32_t id) {
  Span& span = spans_[id];
  span.end_ns = NowNanos();
  open_ = span.parent;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::ByLayer() const {
  // Spans nest strictly (one thread, scoped), so the part of a span its
  // children cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent && span.end_ns >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    LayerTime& layer = layers[span.name];
    const int64_t total = span.end_ns - span.start_ns;
    layer.total_s += 1e-9 * static_cast<double>(total);
    layer.self_s += 1e-9 * static_cast<double>(total - child_ns[i]);
    ++layer.calls;
  }
  return layers;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (double seconds : Durations(name)) total += seconds;
  return total;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && name == span.name) {
      durations.push_back(1e-9 * static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return durations;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %" PRId64
                 ", \"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",\n", i, span.name,
                 span.parent == kNoParent ? int64_t{-1}
                                          : static_cast<int64_t>(span.parent),
                 1e-3 * static_cast<double>(span.start_ns - origin),
                 1e-3 * static_cast<double>(span.end_ns - origin));
  }
  std::fprintf(file, "],\n\"requests\": [\n");
  for (size_t i = 0; i < requests_.size(); ++i) {
    const Request& request = requests_[i];
    std::fprintf(file,
                 "%s{\"id\": %" PRIu64
                 ", \"phase\": \"%s\", \"due_s\": %.6f, \"sent_s\": %.6f, "
                 "\"received_s\": %.6f}",
                 i == 0 ? "" : ",\n", request.id, request.phase, request.due_s,
                 request.sent_s, request.received_s);
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

bool FinishTrace(const SpanRecorder& spans, const std::string& path) {
  std::printf("layer time (traced run):\n  %-28s %8s %12s %12s\n", "span",
              "calls", "total_s", "self_s");
  for (const auto& [name, layer] : spans.ByLayer()) {
    std::printf("  %-28s %8" PRIu64 " %12.6f %12.6f\n", name.c_str(),
                layer.calls, layer.total_s, layer.self_s);
  }
  if (path.empty()) return true;
  const bool ok = spans.WriteJson(path);
  std::printf("spans %s %s\n", ok ? "written to" : "could not be written to",
              path.c_str());
  return ok;
}

}  // namespace perfbench
