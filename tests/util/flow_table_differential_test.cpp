// Random-operation differential test of util::FlowTable against
// std::unordered_map. Interleaves try_emplace, find and erase (present
// and absent keys) through growth, a steady state held just under the
// 75% load ceiling, and shrinkage, with hashers that force long
// backward-shift chains. After every operation the sizes agree; at
// checkpoints every surviving value must sit at the pointer it was
// inserted at, hold what the reference holds, and for_each must visit
// exactly the reference's entries.
#include "util/flow_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace idseval::util {
namespace {

/// Eight consecutive keys share a home slot: clustered chains that every
/// erase must backward-shift through.
struct GroupHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return mix64(k >> 3);
  }
};

/// 61 home slots for the whole key universe: primary clustering merges
/// them into runs hundreds of slots long that can wrap past the end of
/// the slot array.
struct FewHomesHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return mix64(k % 61);
  }
};

/// Non-trivial value (owns heap memory), so slab destruction and slot
/// recycling show under the sanitizers.
struct Value {
  std::uint64_t key = 0;
  std::uint64_t stamp = 0;
  std::string tag;
  Value(std::uint64_t k, std::uint64_t s)
      : key(k), stamp(s), tag("value-" + std::to_string(k)) {}
};

struct Ref {
  std::uint64_t stamp;
  const Value* where;
};

struct Plan {
  std::uint64_t seed;
  std::size_t ops;
  std::uint64_t key_universe;
  std::size_t target_size;  ///< Size the steady phase hovers at.
};

template <class Hash>
void run_differential(const Plan& plan) {
  FlowTable<std::uint64_t, Value, Hash> table;
  std::unordered_map<std::uint64_t, Ref> ref;
  Rng rng(plan.seed);
  std::uint64_t stamp = 0;
  double peak_load = 0.0;
  std::uint64_t absent_erases = 0;
  std::uint64_t absent_finds = 0;

  const auto full_check = [&](std::size_t op) {
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    for (const auto& [key, r] : ref) {
      const Value* v = std::as_const(table).find(key);
      ASSERT_EQ(v, r.where) << "key " << key << " moved or vanished, op "
                            << op;
      ASSERT_EQ(v->key, key);
      ASSERT_EQ(v->stamp, r.stamp);
      ASSERT_EQ(v->tag, "value-" + std::to_string(key));
    }
    std::vector<std::uint64_t> visited;
    table.for_each([&](const std::uint64_t& key, Value& v) {
      const auto it = ref.find(key);
      ASSERT_NE(it, ref.end()) << "for_each visited dead key " << key;
      ASSERT_EQ(&v, it->second.where);
      visited.push_back(key);
    });
    std::vector<std::uint64_t> expected;
    for (const auto& [key, r] : ref) expected.push_back(key);
    std::sort(visited.begin(), visited.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(visited, expected) << "op " << op;
  };

  for (std::size_t op = 0; op < plan.ops; ++op) {
    // Grow for the first quarter, hover at the target for the middle
    // half, then shrink toward empty.
    double insert_share = 0.5;
    if (op < plan.ops / 4) {
      insert_share = 0.8;
    } else if (op >= plan.ops * 3 / 4) {
      insert_share = 0.2;
    } else if (ref.size() < plan.target_size) {
      insert_share = 0.6;
    } else {
      insert_share = 0.4;
    }
    const std::uint64_t key = rng.uniform_u64(0, plan.key_universe - 1);
    const double u = rng.uniform();
    const auto it = ref.find(key);
    if (u < insert_share * 0.8) {
      const auto [v, inserted] = table.try_emplace(key, key, ++stamp);
      ASSERT_EQ(inserted, it == ref.end()) << "key " << key;
      if (inserted) {
        ASSERT_EQ(v->key, key);
        ASSERT_EQ(v->stamp, stamp);
        ref.emplace(key, Ref{stamp, v});
      } else {
        ASSERT_EQ(v, it->second.where);
        ASSERT_EQ(v->stamp, it->second.stamp);
      }
    } else if (u < 0.8) {
      const bool erased = table.erase(key);
      ASSERT_EQ(erased, it != ref.end()) << "key " << key;
      if (erased) {
        ref.erase(it);
      } else {
        ++absent_erases;
      }
    } else {
      Value* v = table.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(v, nullptr) << "found absent key " << key;
        ++absent_finds;
      } else {
        ASSERT_EQ(v, it->second.where);
        ASSERT_EQ(v->stamp, it->second.stamp);
        // Write through the pointer so a value that later moves with its
        // slot, or is swapped with a neighbour's, shows up.
        v->stamp = ++stamp;
        it->second.stamp = stamp;
      }
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    ASSERT_EQ(table.empty(), ref.empty());
    peak_load = std::max(peak_load, static_cast<double>(table.size()) /
                                        static_cast<double>(table.capacity()));
    if (op % 997 == 0) {
      ASSERT_NO_FATAL_FAILURE(full_check(op));
    }
  }
  ASSERT_NO_FATAL_FAILURE(full_check(plan.ops));

  // The schedule must have reached the intended regimes.
  EXPECT_GT(table.stats().rehashes, 3u);
  EXPECT_GT(peak_load, 0.70);
  EXPECT_GT(absent_erases, 0u);
  EXPECT_GT(absent_finds, 0u);

  // Erase to empty, then refill: recycled slab slots and a fully
  // backward-shifted slot array must behave like a fresh table.
  std::vector<std::uint64_t> keys;
  for (const auto& [key, r] : ref) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) ASSERT_TRUE(table.erase(key));
  ref.clear();
  EXPECT_TRUE(table.empty());
  for (std::uint64_t key = 0; key < plan.target_size; ++key) {
    const auto [v, inserted] = table.try_emplace(key, key, ++stamp);
    ASSERT_TRUE(inserted);
    ref.emplace(key, Ref{stamp, v});
  }
  ASSERT_NO_FATAL_FAILURE(full_check(plan.ops + 1));
}

TEST(FlowTableDifferential, DefaultHashMatchesUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(run_differential<FlowKeyHash<std::uint64_t>>(
        Plan{seed, 120'000, 12'000, 6'000}));
  }
}

TEST(FlowTableDifferential, GroupedHomesMatchUnorderedMap) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(
        run_differential<GroupHash>(Plan{seed, 80'000, 6'000, 3'000}));
  }
}

TEST(FlowTableDifferential, FewHomesMatchUnorderedMap) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(
        run_differential<FewHomesHash>(Plan{seed, 20'000, 760, 380}));
  }
}

}  // namespace
}  // namespace idseval::util
