#ifndef HYPERPROF_PERFBENCH_REPORT_H_
#define HYPERPROF_PERFBENCH_REPORT_H_

#include <pthread.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line arguments of one benchmark run. */
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

/** One reported number: `{"value": v, "unit": u}` under `name`. */
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/**
 * What a run reports: correctness accounting plus its metrics. Every
 * operation the run attempts is counted; a check that fails counts one
 * failure against them, so `correct` holds only when nothing failed.
 */
class RunReport {
 public:
  void Attempt(uint64_t operations) { attempted_ += operations; }
  /**
   * Records `failures` failed operations (with a reason for the log);
   * zero failures records nothing.
   */
  void Fail(uint64_t failures, const std::string& reason);
  /** One correctness check: a failure is logged and counted. */
  bool Check(bool ok, const std::string& what);

  void Set(const std::string& name, double value, const std::string& unit);
  /** Value of a metric already set (0 when absent). */
  double Get(const std::string& name) const;

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /** Prints every metric as `name value unit` lines for humans. */
  void PrintTable() const;
  /** The result line: correct / attempted / failed / metrics. */
  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// --- Clocks and memory -----------------------------------------------------

/** Monotonic wall clock in seconds. */
double WallSeconds();
/** CPU time of every thread of this process, in seconds. */
double ProcessCpuSeconds();
/** CPU time consumed so far by `thread` (any live thread of this process). */
double ThreadCpuSeconds(pthread_t thread);
/** Peak resident set (VmHWM) in MB. */
double PeakRssMb();
/** Current resident set (VmRSS) in MB. */
double CurrentRssMb();
/**
 * Returns freed heap to the OS, so every set-up in a run pays the page
 * faults a fresh process pays, as users do.
 */
void ReleaseFreedMemory();

// --- Statistics --------------------------------------------------------------

double Median(std::vector<double> values);
/** Linear-interpolated quantile `q` in [0, 1] of `values` (0 when empty). */
double Quantile(std::vector<double> values, double q);

/** FNV-1a over the bit patterns of the values folded in. */
class Digest {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  void AddBytes(const void* data, size_t size);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- Provenance --------------------------------------------------------------

/**
 * Where a result came from: commit (or "unknown" outside git), a digest
 * of src/, host cores, kernel dispatch, build type and sanitizer.
 */
std::string ProvenanceLine();
/**
 * Empty when the build may report timings; otherwise why it may not (a
 * sanitizer or an unoptimized build).
 */
std::string TimingRefusal();

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_REPORT_H_
