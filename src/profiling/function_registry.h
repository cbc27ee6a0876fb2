#ifndef HYPERPROF_PROFILING_FUNCTION_REGISTRY_H_
#define HYPERPROF_PROFILING_FUNCTION_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "profiling/categories.h"

namespace hyperprof::profiling {

/**
 * Interned name handle. Id 0 (`kInvalidNameId`) is reserved for "no name";
 * valid ids are dense and start at 1, so they double as array indices.
 */
using NameId = uint32_t;
inline constexpr NameId kInvalidNameId = 0;

/**
 * Append-only string interner for the measurement path.
 *
 * A fleet-day of traces repeats a handful of platform, query-type, and
 * span names millions of times; storing `std::string` per span is the
 * dominant allocation of the instrumentation pipeline. Call sites intern
 * once (at engine construction) and carry `NameId`s on the hot path;
 * strings are resolved back only at report/export time.
 *
 * Returned `string_view`s stay valid for the interner's lifetime: names
 * live in a deque whose elements never move.
 */
class NameInterner {
 public:
  NameInterner();
  NameInterner(const NameInterner&) = delete;
  NameInterner& operator=(const NameInterner&) = delete;

  /** Interns `name`, returning its stable id (idempotent per string). */
  NameId Intern(std::string_view name);

  /**
   * Looks up a name without interning; kInvalidNameId when absent. Lets
   * tests and exporters probe for names that may never have been seen.
   */
  NameId Find(std::string_view name) const;

  /** Resolves an id; "" for kInvalidNameId or out-of-range ids. */
  std::string_view Name(NameId id) const;

  /** Number of distinct interned names (excluding the reserved id 0). */
  size_t size() const { return names_.size() - 1; }

  /** Bytes held by the names and the id index (capacities, estimated). */
  size_t memory_bytes() const;

 private:
  std::deque<std::string> names_;  // index == NameId; [0] is ""
  std::unordered_map<std::string_view, NameId> ids_;
};

/**
 * Maps leaf-function symbols to fine cycle categories.
 *
 * This is the "manually categorize, prioritize, and aggregate returned
 * samples by their leaf functions" step of the paper's Section 5.1: exact
 * symbol matches first, then longest-prefix rules (namespace / library
 * prefixes), then Uncategorized.
 */
class FunctionRegistry {
 public:
  /** Registers an exact symbol -> category mapping. */
  void AddExact(std::string symbol, FnCategory category);

  /** Registers a prefix rule, e.g. "tcmalloc::" -> Mem. Allocation. */
  void AddPrefix(std::string prefix, FnCategory category);

  /**
   * Classifies a symbol: exact match, then longest matching prefix,
   * otherwise Uncategorized (core).
   */
  FnCategory Classify(const std::string& symbol) const;

  size_t exact_rules() const { return exact_.size(); }
  size_t prefix_rules() const { return prefixes_.size(); }

  /** All exact symbols registered under the given category. */
  std::vector<std::string> SymbolsFor(FnCategory category) const;

 private:
  std::unordered_map<std::string, FnCategory> exact_;
  std::vector<std::pair<std::string, FnCategory>> prefixes_;
};

/**
 * Builds the fleet-wide registry used by all three platforms: realistic
 * leaf symbols per category (compressor entry points, RPC stubs, kernel
 * entry symbols, STL internals, ...), mirroring how the production
 * categorization was curated.
 */
FunctionRegistry BuildFleetRegistry();

}  // namespace hyperprof::profiling

#endif  // HYPERPROF_PROFILING_FUNCTION_REGISTRY_H_
