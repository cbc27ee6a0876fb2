#ifndef HYPERPROF_WORKLOADS_RELATIONAL_H_
#define HYPERPROF_WORKLOADS_RELATIONAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace hyperprof::relational {

/**
 * Columnar relational kernels — the "core compute" operations of the
 * analytics platform in the paper's Table 5: filter/scan, aggregation
 * (hash and sort), join, sort, and materialize.
 *
 * Columns are int64 vectors; a Table is a set of equally-long named
 * columns. The kernels are real (they move and compute on actual data) so
 * the per-operation cost models used by the simulated BigQuery engine are
 * grounded in measurable code.
 */
struct Column {
  std::string name;
  std::vector<int64_t> values;
};

/** A named collection of equal-length columns. */
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<Column> columns);

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].values.size();
  }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

 private:
  std::vector<Column> columns_;
};

/** Comparison predicates for Filter. */
enum class Predicate { kLess, kLessEq, kEq, kNotEq, kGreaterEq, kGreater };

/** Aggregation functions. */
enum class AggOp { kSum, kCount, kMin, kMax };

/**
 * Scans a column, returning indices of rows satisfying
 * `value <pred> literal` (a selection vector).
 */
std::vector<uint32_t> Filter(const Column& column, Predicate pred,
                             int64_t literal);

/** Gathers the selected rows of the given columns into a new table. */
Table Materialize(const Table& table, const std::vector<uint32_t>& selection,
                  const std::vector<size_t>& column_indices);

/**
 * Groups by `group_column`, applying `op` over `value_column`.
 * Output columns: "key" and "agg", ordered by first occurrence.
 */
Table HashAggregate(const Table& table, size_t group_column,
                    size_t value_column, AggOp op);

/**
 * Sort-based aggregation: same contract as HashAggregate with key-ordered
 * output. The paper distinguishes hash vs sort aggregation costs; having
 * both allows the ablation benches to compare them.
 */
Table SortAggregate(const Table& table, size_t group_column,
                    size_t value_column, AggOp op);

/**
 * Inner hash join on integer keys. Output columns are left columns then
 * right columns (key columns included once each).
 */
Table HashJoin(const Table& left, size_t left_key, const Table& right,
               size_t right_key);

/** Stable in-place sort of all columns by the given key column. */
void SortByColumn(Table& table, size_t key_column);

/**
 * Generates a table of `num_rows` rows: column 0 is a Zipf-ish group key
 * with `key_cardinality` distinct values, remaining columns are uniform
 * values. Used by the analytics workload generator and the kernel
 * microbenchmarks.
 */
Table GenerateTable(size_t num_rows, size_t num_value_columns,
                    size_t key_cardinality, Rng& rng);

}  // namespace hyperprof::relational

#endif  // HYPERPROF_WORKLOADS_RELATIONAL_H_
