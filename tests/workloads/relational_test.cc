#include "workloads/relational.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

namespace hyperprof::relational {
namespace {

Table MakeTable(std::vector<int64_t> keys, std::vector<int64_t> values) {
  std::vector<Column> columns;
  columns.push_back(Column{"key", std::move(keys)});
  columns.push_back(Column{"value", std::move(values)});
  return Table(std::move(columns));
}

TEST(FilterTest, AllPredicates) {
  Column column{"c", {1, 5, 3, 5, 7}};
  EXPECT_EQ(Filter(column, Predicate::kLess, 5),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Filter(column, Predicate::kLessEq, 5),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(Filter(column, Predicate::kEq, 5),
            (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(Filter(column, Predicate::kNotEq, 5),
            (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(Filter(column, Predicate::kGreaterEq, 5),
            (std::vector<uint32_t>{1, 3, 4}));
  EXPECT_EQ(Filter(column, Predicate::kGreater, 5),
            (std::vector<uint32_t>{4}));
}

TEST(FilterTest, EmptyColumn) {
  Column column{"c", {}};
  EXPECT_TRUE(Filter(column, Predicate::kEq, 1).empty());
}

TEST(MaterializeTest, GathersSelectedRows) {
  Table table = MakeTable({1, 2, 3, 4}, {10, 20, 30, 40});
  Table out = Materialize(table, {1, 3}, {0, 1});
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).values, (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(out.column(1).values, (std::vector<int64_t>{20, 40}));
}

TEST(AggregateTest, HashSumGroups) {
  Table table = MakeTable({1, 2, 1, 2, 3}, {10, 20, 30, 40, 50});
  Table out = HashAggregate(table, 0, 1, AggOp::kSum);
  ASSERT_EQ(out.num_rows(), 3u);
  std::map<int64_t, int64_t> result;
  for (size_t i = 0; i < out.num_rows(); ++i) {
    result[out.column(0).values[i]] = out.column(1).values[i];
  }
  EXPECT_EQ(result[1], 40);
  EXPECT_EQ(result[2], 60);
  EXPECT_EQ(result[3], 50);
}

TEST(AggregateTest, CountMinMax) {
  Table table = MakeTable({1, 1, 1}, {5, -2, 9});
  EXPECT_EQ(HashAggregate(table, 0, 1, AggOp::kCount).column(1).values[0], 3);
  EXPECT_EQ(HashAggregate(table, 0, 1, AggOp::kMin).column(1).values[0], -2);
  EXPECT_EQ(HashAggregate(table, 0, 1, AggOp::kMax).column(1).values[0], 9);
}

TEST(AggregateTest, HashAndSortAgree) {
  Rng rng(3);
  Table table = GenerateTable(5000, 1, 40, rng);
  for (AggOp op : {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax}) {
    Table hash_result = HashAggregate(table, 0, 1, op);
    Table sort_result = SortAggregate(table, 0, 1, op);
    ASSERT_EQ(hash_result.num_rows(), sort_result.num_rows());
    std::map<int64_t, int64_t> hash_map, sort_map;
    for (size_t i = 0; i < hash_result.num_rows(); ++i) {
      hash_map[hash_result.column(0).values[i]] =
          hash_result.column(1).values[i];
    }
    for (size_t i = 0; i < sort_result.num_rows(); ++i) {
      sort_map[sort_result.column(0).values[i]] =
          sort_result.column(1).values[i];
    }
    EXPECT_EQ(hash_map, sort_map);
  }
}

TEST(AggregateTest, SortAggregateOutputIsKeyOrdered) {
  Rng rng(5);
  Table table = GenerateTable(1000, 1, 20, rng);
  Table out = SortAggregate(table, 0, 1, AggOp::kSum);
  EXPECT_TRUE(std::is_sorted(out.column(0).values.begin(),
                             out.column(0).values.end()));
}

TEST(HashJoinTest, MatchesNestedLoopReference) {
  Rng rng(7);
  Table left = MakeTable({1, 2, 3, 2}, {10, 20, 30, 21});
  Table right = MakeTable({2, 2, 4, 1}, {100, 200, 300, 400});
  Table joined = HashJoin(left, 0, right, 0);

  // Reference nested-loop join.
  std::multiset<std::tuple<int64_t, int64_t, int64_t, int64_t>> expected,
      actual;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (left.column(0).values[l] == right.column(0).values[r]) {
        expected.insert({left.column(0).values[l], left.column(1).values[l],
                         right.column(0).values[r],
                         right.column(1).values[r]});
      }
    }
  }
  for (size_t i = 0; i < joined.num_rows(); ++i) {
    actual.insert(
        {joined.column(0).values[i], joined.column(1).values[i],
         joined.column(2).values[i], joined.column(3).values[i]});
  }
  EXPECT_EQ(expected, actual);
  EXPECT_EQ(joined.num_rows(), 5u);  // key 1 x1, key 2: 2x2 = 4
}

TEST(HashJoinTest, NoMatchesYieldsEmpty) {
  Table left = MakeTable({1}, {10});
  Table right = MakeTable({2}, {20});
  Table joined = HashJoin(left, 0, right, 0);
  EXPECT_EQ(joined.num_rows(), 0u);
  EXPECT_EQ(joined.num_columns(), 4u);
}

TEST(HashJoinTest, ColumnNamesArePrefixed) {
  Table left = MakeTable({1}, {10});
  Table right = MakeTable({1}, {20});
  Table joined = HashJoin(left, 0, right, 0);
  EXPECT_EQ(joined.column(0).name, "l_key");
  EXPECT_EQ(joined.column(3).name, "r_value");
}

TEST(SortTest, SortsAllColumnsByKey) {
  Table table = MakeTable({3, 1, 2}, {30, 10, 20});
  SortByColumn(table, 0);
  EXPECT_EQ(table.column(0).values, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(table.column(1).values, (std::vector<int64_t>{10, 20, 30}));
}

TEST(SortTest, StableOnTies) {
  std::vector<Column> columns;
  columns.push_back(Column{"key", {1, 1, 1}});
  columns.push_back(Column{"order", {0, 1, 2}});
  Table table(std::move(columns));
  SortByColumn(table, 0);
  EXPECT_EQ(table.column(1).values, (std::vector<int64_t>{0, 1, 2}));
}

TEST(GenerateTableTest, ShapeAndCardinality) {
  Rng rng(9);
  Table table = GenerateTable(10000, 3, 50, rng);
  EXPECT_EQ(table.num_rows(), 10000u);
  EXPECT_EQ(table.num_columns(), 4u);
  for (int64_t key : table.column(0).values) {
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 50);
  }
  // Zipf-ish: rank 0 appears more often than rank 40.
  int rank0 = 0, rank40 = 0;
  for (int64_t key : table.column(0).values) {
    if (key == 0) ++rank0;
    if (key == 40) ++rank40;
  }
  EXPECT_GT(rank0, rank40);
}

}  // namespace
}  // namespace hyperprof::relational
