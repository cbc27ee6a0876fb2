#include "workloads/relational.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

namespace hyperprof::relational {

Table::Table(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (const auto& col : columns_) {
    assert(col.values.size() == columns_[0].values.size());
    (void)col;
  }
}

std::vector<uint32_t> Filter(const Column& column, Predicate pred,
                             int64_t literal) {
  std::vector<uint32_t> selection;
  selection.reserve(column.values.size() / 4);
  const auto& v = column.values;
  auto scan = [&](auto keep) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (keep(v[i])) selection.push_back(static_cast<uint32_t>(i));
    }
  };
  switch (pred) {
    case Predicate::kLess:
      scan([literal](int64_t x) { return x < literal; });
      break;
    case Predicate::kLessEq:
      scan([literal](int64_t x) { return x <= literal; });
      break;
    case Predicate::kEq:
      scan([literal](int64_t x) { return x == literal; });
      break;
    case Predicate::kNotEq:
      scan([literal](int64_t x) { return x != literal; });
      break;
    case Predicate::kGreaterEq:
      scan([literal](int64_t x) { return x >= literal; });
      break;
    case Predicate::kGreater:
      scan([literal](int64_t x) { return x > literal; });
      break;
  }
  return selection;
}

Table Materialize(const Table& table, const std::vector<uint32_t>& selection,
                  const std::vector<size_t>& column_indices) {
  std::vector<Column> out;
  out.reserve(column_indices.size());
  for (size_t ci : column_indices) {
    const Column& src = table.column(ci);
    Column dst;
    dst.name = src.name;
    dst.values.reserve(selection.size());
    for (uint32_t row : selection) {
      dst.values.push_back(src.values[row]);
    }
    out.push_back(std::move(dst));
  }
  return Table(std::move(out));
}

namespace {

struct AggState {
  int64_t accum;
  bool initialized;
};

int64_t InitialAccum(AggOp op, int64_t first) {
  switch (op) {
    case AggOp::kSum: return first;
    case AggOp::kCount: return 1;
    case AggOp::kMin: return first;
    case AggOp::kMax: return first;
  }
  return 0;
}

void Accumulate(AggOp op, int64_t value, int64_t* accum) {
  switch (op) {
    case AggOp::kSum: *accum += value; break;
    case AggOp::kCount: *accum += 1; break;
    case AggOp::kMin: *accum = std::min(*accum, value); break;
    case AggOp::kMax: *accum = std::max(*accum, value); break;
  }
}

}  // namespace

Table HashAggregate(const Table& table, size_t group_column,
                    size_t value_column, AggOp op) {
  const auto& keys = table.column(group_column).values;
  const auto& values = table.column(value_column).values;
  std::unordered_map<int64_t, size_t> index;
  index.reserve(keys.size() / 4 + 1);
  Column key_out{"key", {}};
  Column agg_out{"agg", {}};
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [it, inserted] = index.try_emplace(keys[i], key_out.values.size());
    if (inserted) {
      key_out.values.push_back(keys[i]);
      agg_out.values.push_back(InitialAccum(op, values[i]));
    } else {
      Accumulate(op, values[i], &agg_out.values[it->second]);
    }
  }
  std::vector<Column> out;
  out.push_back(std::move(key_out));
  out.push_back(std::move(agg_out));
  return Table(std::move(out));
}

Table SortAggregate(const Table& table, size_t group_column,
                    size_t value_column, AggOp op) {
  const auto& keys = table.column(group_column).values;
  const auto& values = table.column(value_column).values;
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  Column key_out{"key", {}};
  Column agg_out{"agg", {}};
  for (uint32_t row : order) {
    if (!key_out.values.empty() && key_out.values.back() == keys[row]) {
      Accumulate(op, values[row], &agg_out.values.back());
    } else {
      key_out.values.push_back(keys[row]);
      agg_out.values.push_back(InitialAccum(op, values[row]));
    }
  }
  std::vector<Column> out;
  out.push_back(std::move(key_out));
  out.push_back(std::move(agg_out));
  return Table(std::move(out));
}

Table HashJoin(const Table& left, size_t left_key, const Table& right,
               size_t right_key) {
  const auto& lkeys = left.column(left_key).values;
  const auto& rkeys = right.column(right_key).values;
  // Build on the smaller side; probe with the larger, preserving probe
  // order in the output.
  const bool build_left = lkeys.size() <= rkeys.size();
  const auto& build_keys = build_left ? lkeys : rkeys;
  std::unordered_multimap<int64_t, uint32_t> hash_table;
  hash_table.reserve(build_keys.size());
  for (size_t i = 0; i < build_keys.size(); ++i) {
    hash_table.emplace(build_keys[i], static_cast<uint32_t>(i));
  }
  const auto& probe_keys = build_left ? rkeys : lkeys;
  std::vector<uint32_t> left_rows, right_rows;
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    auto [lo, hi] = hash_table.equal_range(probe_keys[i]);
    for (auto it = lo; it != hi; ++it) {
      uint32_t build_row = it->second;
      uint32_t probe_row = static_cast<uint32_t>(i);
      left_rows.push_back(build_left ? build_row : probe_row);
      right_rows.push_back(build_left ? probe_row : build_row);
    }
  }
  std::vector<Column> out;
  out.reserve(left.num_columns() + right.num_columns());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    const Column& src = left.column(c);
    Column dst{"l_" + src.name, {}};
    dst.values.reserve(left_rows.size());
    for (uint32_t row : left_rows) dst.values.push_back(src.values[row]);
    out.push_back(std::move(dst));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Column& src = right.column(c);
    Column dst{"r_" + src.name, {}};
    dst.values.reserve(right_rows.size());
    for (uint32_t row : right_rows) dst.values.push_back(src.values[row]);
    out.push_back(std::move(dst));
  }
  return Table(std::move(out));
}

void SortByColumn(Table& table, size_t key_column) {
  const auto& keys = table.column(key_column).values;
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  for (size_t c = 0; c < table.num_columns(); ++c) {
    auto& values = table.column(c).values;
    std::vector<int64_t> sorted(values.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted[i] = values[order[i]];
    }
    values = std::move(sorted);
  }
}

Table GenerateTable(size_t num_rows, size_t num_value_columns,
                    size_t key_cardinality, Rng& rng) {
  assert(key_cardinality > 0);
  std::vector<Column> columns;
  Column key{"key", {}};
  key.values.reserve(num_rows);
  ZipfSampler zipf(key_cardinality, 0.8);
  for (size_t i = 0; i < num_rows; ++i) {
    key.values.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  columns.push_back(std::move(key));
  for (size_t c = 0; c < num_value_columns; ++c) {
    Column col{"v" + std::to_string(c), {}};
    col.values.reserve(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      col.values.push_back(static_cast<int64_t>(rng.NextBounded(1000000)));
    }
    columns.push_back(std::move(col));
  }
  return Table(std::move(columns));
}

}  // namespace hyperprof::relational
