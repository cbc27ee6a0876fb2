#ifndef HYPERPROF_PERFBENCH_SPANS_H_
#define HYPERPROF_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * In-memory span log of a traced run. The benchmark opens one span around
 * each of its own calls into a hyperprof layer (name = module.operation),
 * nested by the call structure on the benchmark thread; serving requests
 * are logged separately, keyed by request id, with their due, sent and
 * received times. Nothing is written until the run ends.
 */
class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name = nullptr;  // static string
    uint32_t parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };

  struct Request {
    uint64_t id = 0;
    const char* phase = nullptr;  // static string
    double due_s = 0;
    double sent_s = 0;
    double received_s = 0;  // < 0: never received
  };

  /** Per-name totals: self time excludes time covered by child spans. */
  struct LayerTime {
    double total_s = 0;
    double self_s = 0;
    uint64_t calls = 0;
  };

  uint32_t Begin(const char* name);
  void End(uint32_t id);
  void AddRequest(const Request& request) { requests_.push_back(request); }

  std::map<std::string, LayerTime> ByLayer() const;
  /** Summed duration of every span named `name`. */
  double TotalSeconds(const std::string& name) const;
  /** Durations in seconds of every span named `name`, in call order. */
  std::vector<double> Durations(const std::string& name) const;

  /** Writes spans and requests as one JSON document. */
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Request> requests_;
  uint32_t open_ = kNoParent;  // innermost open span
};

/**
 * Ends a traced run: prints each layer's total and self time and writes
 * the spans to `path` (nothing when `path` is empty).
 */
bool FinishTrace(const SpanRecorder& spans, const std::string& path);

/** The recorder of the current run; nullptr when the run is untraced. */
SpanRecorder* ActiveSpans();
void SetActiveSpans(SpanRecorder* recorder);

/** Opens a span for its scope when a recorder is active; free otherwise. */
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : recorder_(ActiveSpans()),
        id_(recorder_ != nullptr ? recorder_->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_SPANS_H_
