// DataTree::ChildTable, the flat table behind every znode's children: a
// seeded property test against a std::map oracle, its growth and erase
// rules, and the name order of everything built from it (GetChildren,
// ReadDirPlus entries, snapshot bytes), whatever order the children came in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "zk/database.h"
#include "zk/proto.h"
#include "zk/znode.h"

namespace dufs::zk {
namespace {

using Znode = DataTree::Znode;
using ChildTable = DataTree::ChildTable;

std::unique_ptr<Znode> Named(const std::string& name) {
  auto node = std::make_unique<Znode>();
  node->name = name;
  return node;
}

std::vector<std::string> NamesInOrder(const ChildTable& table) {
  std::vector<const Znode*> sorted;
  table.SortedInto(sorted);
  std::vector<std::string> names;
  for (const Znode* child : sorted) names.push_back(child->name);
  return names;
}

// Checks `table` against the oracle: the same size, every oracle name found
// at its own node, the load at most 1/2, and the same names in name order.
void ExpectMatches(const ChildTable& table,
                   const std::map<std::string, const Znode*>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [name, node] : oracle) {
    ASSERT_EQ(table.Find(name), node) << name;
  }
  if (table.capacity() != 0) {
    EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
    EXPECT_GE(table.capacity(), 2 * table.size());
  }
  std::vector<std::string> expected;
  for (const auto& [name, node] : oracle) expected.push_back(name);
  EXPECT_EQ(NamesInOrder(table), expected);
}

// Random inserts, finds and erases over a small alphabet of one- and
// two-letter names ("", "a", ..., "dd"), so small tables see many colliding
// probe runs, grow through every size up to 64 slots and empty out again.
TEST(ChildTableTest, MatchesAMapOracleUnderRandomChurn) {
  std::vector<std::string> names{""};
  for (char a = 'a'; a <= 'd'; ++a) {
    names.emplace_back(1, a);
    for (char b = 'a'; b <= 'd'; ++b) names.push_back(std::string{a, b});
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ChildTable table;
    std::map<std::string, const Znode*> oracle;
    for (int step = 0; step < 2000; ++step) {
      const std::string& name = names[rng.NextBelow(names.size())];
      const bool present = oracle.contains(name);
      switch (rng.NextBelow(3)) {
        case 0:  // insert, if absent
          if (!present) oracle[name] = table.Insert(Named(name));
          break;
        case 1:  // find
          EXPECT_EQ(table.Find(name), present ? oracle[name] : nullptr);
          break;
        default: {  // erase
          std::unique_ptr<Znode> removed = table.Erase(name);
          if (present) {
            ASSERT_NE(removed, nullptr);
            EXPECT_EQ(removed.get(), oracle[name]);
            EXPECT_EQ(removed->name, name);
            oracle.erase(name);
          } else {
            EXPECT_EQ(removed, nullptr);
          }
          break;
        }
      }
      if (step % 50 == 0) ExpectMatches(table, oracle);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ExpectMatches(table, oracle);
  }
}

TEST(ChildTableTest, LeafHasNoSlotsAndGrowthDoublesPastHalfLoad) {
  ChildTable table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find("x"), nullptr);
  EXPECT_EQ(table.Erase("x"), nullptr);
  // Each insert that would take the load past 1/2 doubles the slots.
  const std::vector<std::size_t> capacity_after{2, 4, 8, 8, 16, 16, 16, 16, 32};
  for (std::size_t i = 0; i < capacity_after.size(); ++i) {
    table.Insert(Named("n" + std::to_string(i)));
    EXPECT_EQ(table.capacity(), capacity_after[i]) << "after " << i + 1;
  }
  // Erasing never shrinks: a directory that empties and fills again keeps
  // its slots.
  for (std::size_t i = 0; i < capacity_after.size(); ++i) {
    EXPECT_NE(table.Erase("n" + std::to_string(i)), nullptr);
  }
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), 32u);
}

// Fills a table to its load limit and erases in every rotation of the
// insertion order: the backward shift must keep every survivor reachable.
TEST(ChildTableTest, BackwardShiftKeepsEverySurvivorReachable) {
  constexpr int kNames = 16;  // 32 slots at load 1/2
  for (int first = 0; first < kNames; ++first) {
    ChildTable table;
    std::map<std::string, const Znode*> oracle;
    for (int i = 0; i < kNames; ++i) {
      const std::string name = "f" + std::to_string(i);
      oracle[name] = table.Insert(Named(name));
    }
    for (int k = 0; k < kNames; ++k) {
      const std::string name = "f" + std::to_string((first + k) % kNames);
      ASSERT_NE(table.Erase(name), nullptr) << name;
      oracle.erase(name);
      ExpectMatches(table, oracle);
    }
  }
}

// The children of /d in three insertion orders: forward, reverse and a
// seeded shuffle.
std::vector<std::vector<std::string>> InsertionOrders() {
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("e" + std::to_string(i * 7));
  names.push_back("E");   // upper case sorts before lower case
  names.push_back("e");   // a prefix sorts before its extensions
  names.push_back("~x");  // and '~' after every letter
  std::vector<std::vector<std::string>> orders{names, names};
  std::reverse(orders[1].begin(), orders[1].end());
  std::vector<std::string> shuffled = names;
  Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  orders.push_back(shuffled);
  return orders;
}

Txn MakeCreate(const std::string& path) {
  Txn txn;
  txn.session = 1;
  txn.op = Op::Create(path, {'x'});
  return txn;
}

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ChildTableTest, ListingsAndSnapshotsAreInNameOrder) {
  const auto orders = InsertionOrders();
  const std::vector<std::string> expected = Sorted(orders[0]);
  std::vector<std::uint8_t> first_snapshot;
  for (const auto& order : orders) {
    // The same tree through CreateChild with one zxid and time, so every
    // stat matches and only the insertion order differs.
    DataTree tree;
    auto dir = tree.CreateChild(tree.root(), "d", {}, CreateMode::kPersistent,
                                0, 1, 1);
    ASSERT_TRUE(dir.ok());
    for (const auto& name : order) {
      ASSERT_TRUE(tree.CreateChild(**dir, name, {'x'},
                                   CreateMode::kPersistent, 0, 1, 1)
                      .ok());
    }
    auto children = tree.GetChildren("/d");
    ASSERT_TRUE(children.ok());
    EXPECT_EQ(*children, expected);

    wire::BufferWriter w;
    tree.Serialize(w);
    if (first_snapshot.empty()) {
      first_snapshot = w.data();
    } else {
      EXPECT_EQ(w.data(), first_snapshot);
    }

    // ReadDirPlus: a replica that applied the creates in this order.
    Database db;
    Zxid zxid = 0;
    ASSERT_TRUE(db.Apply(MakeCreate("/d"), ++zxid, 0).result.ok());
    for (const auto& name : order) {
      ASSERT_TRUE(db.Apply(MakeCreate("/d/" + name), ++zxid, 0).result.ok());
    }
    auto reply = CompoundReply::Decode(
        db.EncodeCompoundRead(Op::ReadDirPlus("/d", false, 0)));
    ASSERT_TRUE(reply.ok());
    std::vector<std::string> listed;
    for (const auto& entry : reply->entries()) {
      listed.emplace_back(entry.name);
    }
    EXPECT_EQ(listed, expected);
  }
}

}  // namespace
}  // namespace dufs::zk
