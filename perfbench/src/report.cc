#include "report.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/cpu.h"

namespace perfbench {

void RunReport::Fail(uint64_t failures, const std::string& reason) {
  if (failures == 0) return;
  failed_ += failures;
  std::fprintf(stderr, "[perfbench] FAILED (%" PRIu64 "): %s\n", failures,
               reason.c_str());
}

bool RunReport::Check(bool ok, const std::string& what) {
  if (!ok) Fail(1, what);
  return ok;
}

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double RunReport::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

void RunReport::PrintTable() const {
  for (const Metric& metric : metrics_) {
    std::printf("  %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string RunReport::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buffer[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // JSON has no NaN or infinity; a metric that is not finite is a bug
    // in the benchmark and is reported as a failed run by main().
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + buffer +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

double WallSeconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** A `/proc/self/status` field in kB, converted to MB. */
double StatusFieldMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::strtod(line.c_str() + length + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  return ClockSeconds(clock);
}

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }
void ReleaseFreedMemory() { malloc_trim(0); }

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  if (lower + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(lower);
  // Misses are scored as +inf; never interpolate toward (or from) one.
  if (fraction == 0 || std::isinf(values[lower])) return values[lower];
  if (std::isinf(values[lower + 1])) return values[lower + 1];
  return values[lower] + fraction * (values[lower + 1] - values[lower]);
}

void Digest::Add(uint64_t value) { AddBytes(&value, sizeof(value)); }

void Digest::AddDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

void Digest::AddBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
  return buffer;
}

namespace {

const char* SanitizerName() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#else
  return "thread";
#endif
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "flags";
  }
  return "none";
#endif
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string ProvenanceLine() {
  return std::string("provenance: commit=") + PERFBENCH_COMMIT +
         " src_digest=" + PERFBENCH_SOURCE_DIGEST +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " dispatch=\"" + hyperprof::KernelDispatchSummary() + "\"" +
         " build_type=" + PERFBENCH_BUILD_TYPE +
         " optimized=" + (Optimized() ? "yes" : "no") +
         " sanitizer=" + SanitizerName();
}

std::string TimingRefusal() {
  if (std::strcmp(SanitizerName(), "none") != 0) {
    return std::string("sanitizer build (") + SanitizerName() + ")";
  }
  if (!Optimized()) return "unoptimized build";
  return "";
}

}  // namespace perfbench
