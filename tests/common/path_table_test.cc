// PathTable: open addressing with linear probing and backward-shift
// deletion. Hash functors pin home slots so collisions, wrap-around and the
// shift rule are exercised deliberately. Slab: stable ids and addresses.
#include "common/path_table.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/slab.h"

namespace dufs {
namespace {

// Home slot = the number after the last ':' ("a:15" -> 15), so a test picks
// where each key lands.
struct PinnedHash {
  std::size_t operator()(std::string_view key) const {
    return std::stoul(std::string(key.substr(key.rfind(':') + 1)));
  }
};

using Pinned = PathTable<int, PinnedHash>;

// Inserts keys that must be absent; string literals outlive every table.
void InsertAll(Pinned& t, std::initializer_list<std::string_view> keys) {
  int value = 1;
  for (std::string_view key : keys) {
    ASSERT_EQ(t.Find(key), nullptr) << key;
    t.Insert(key, value++);
  }
}

int ValueOf(Pinned& t, std::string_view key) {
  const int* v = t.Find(key);
  return v == nullptr ? -1 : *v;
}

TEST(PathTableTest, EmptyTableFindsNothing) {
  PathTable<int> t;
  EXPECT_EQ(t.Find("/a"), nullptr);
  EXPECT_FALSE(t.Erase("/a"));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(PathTableTest, InsertFindErase) {
  PathTable<int> t;
  t.Insert("/a/b", 7);
  ASSERT_NE(t.Find("/a/b"), nullptr);
  EXPECT_EQ(*t.Find("/a/b"), 7);
  *t.Find("/a/b") = 8;  // values are mutable in place
  EXPECT_EQ(*t.Find("/a/b"), 8);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Find("/a"), nullptr);
  EXPECT_TRUE(t.Erase("/a/b"));
  EXPECT_EQ(t.Find("/a/b"), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(PathTableTest, CollidingKeysWrapAroundAndShiftBack) {
  Pinned t;
  // Three keys share home slot 15, the last of the 16 initial slots: the
  // second and third wrap to slots 0 and 1. "d:0" and "e:1" land behind
  // them at 2 and 3.
  InsertAll(t, {"a:15", "b:15", "c:15", "d:0", "e:1"});
  ASSERT_EQ(t.capacity(), 16u);
  // Erasing the head of the run must shift every later entry of it back
  // across the wrap, or the lookups below would stop at the hole.
  EXPECT_TRUE(t.Erase("a:15"));
  EXPECT_EQ(t.Find("a:15"), nullptr);
  EXPECT_EQ(ValueOf(t, "b:15"), 2);
  EXPECT_EQ(ValueOf(t, "c:15"), 3);
  EXPECT_EQ(ValueOf(t, "d:0"), 4);
  EXPECT_EQ(ValueOf(t, "e:1"), 5);
  // Erase from the middle of the wrapped run, then the rest of it.
  EXPECT_TRUE(t.Erase("d:0"));
  EXPECT_EQ(ValueOf(t, "b:15"), 2);
  EXPECT_EQ(ValueOf(t, "c:15"), 3);
  EXPECT_EQ(ValueOf(t, "e:1"), 5);
  EXPECT_TRUE(t.Erase("b:15"));
  EXPECT_TRUE(t.Erase("c:15"));
  EXPECT_EQ(ValueOf(t, "e:1"), 5);
  EXPECT_EQ(t.size(), 1u);
}

TEST(PathTableTest, EntryAtItsHomeSlotStaysPut) {
  Pinned t;
  // "y:3" sits at its home slot right after "x:2", and "z:2" collides at 2
  // and lands at 4. Erasing "x:2" must move "z:2" back but leave "y:3": in
  // front of its home slot a probe from 3 would never find it.
  InsertAll(t, {"x:2", "y:3", "z:2"});
  EXPECT_TRUE(t.Erase("x:2"));
  EXPECT_EQ(ValueOf(t, "y:3"), 2);
  EXPECT_EQ(ValueOf(t, "z:2"), 3);
  EXPECT_TRUE(t.Erase("y:3"));
  EXPECT_EQ(ValueOf(t, "z:2"), 3);
}

TEST(PathTableTest, GrowthKeepsEveryEntry) {
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back("/dir" + std::to_string(i % 7) + "/f" + std::to_string(i));
  }
  PathTable<int> t;
  for (int i = 0; i < static_cast<int>(keys.size()); ++i) {
    t.Insert(keys[i], i);
    ASSERT_LE(t.size() * 4, t.capacity() * 3);  // load stays <= 3/4
  }
  EXPECT_EQ(t.size(), keys.size());
  for (int i = 0; i < static_cast<int>(keys.size()); ++i) {
    // Probe with a separate copy: the lookup compares characters.
    const int* v = t.Find(std::string(keys[i]));
    ASSERT_NE(v, nullptr) << keys[i];
    EXPECT_EQ(*v, i);
  }
}

TEST(PathTableTest, GrowthKeepsCollidingRuns) {
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) keys.push_back("k" + std::to_string(i) + ":5");
  PathTable<int, PinnedHash> t;
  // Twenty keys on one home slot force growth with a single long run.
  for (int i = 0; i < 20; ++i) t.Insert(keys[i], i);
  EXPECT_GT(t.capacity(), 16u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ValueOf(t, keys[i]), i) << keys[i];
}

TEST(PathTableTest, EraseThenReinsert) {
  Pinned t;
  InsertAll(t, {"a:4", "b:4"});
  EXPECT_TRUE(t.Erase("a:4"));
  EXPECT_FALSE(t.Erase("a:4"));
  EXPECT_EQ(t.Find("a:4"), nullptr);
  t.Insert("a:4", 30);
  EXPECT_EQ(ValueOf(t, "a:4"), 30);
  EXPECT_EQ(ValueOf(t, "b:4"), 2);
  EXPECT_EQ(t.size(), 2u);
  // Churn the same keys many times: no tombstones pile up, so the table
  // never grows past its first allocation.
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(t.Erase(round % 2 == 0 ? "a:4" : "b:4"));
    t.Insert(round % 2 == 0 ? "a:4" : "b:4", round);
  }
  EXPECT_EQ(t.capacity(), 16u);
  EXPECT_EQ(ValueOf(t, "a:4"), 998);
  EXPECT_EQ(ValueOf(t, "b:4"), 999);
}

TEST(PathTableTest, StringViewLookupOfSubstrings) {
  PathTable<int> t;
  t.Insert("/a", 1);
  t.Insert("/a/b", 2);
  t.Insert("/a/b/c", 3);
  // Probe with slices of one buffer, as the watch registration loop does.
  const std::string full = "/a/b/c/d";
  const std::string_view view(full);
  EXPECT_EQ(*t.Find(view.substr(0, 2)), 1);
  EXPECT_EQ(*t.Find(view.substr(0, 4)), 2);
  EXPECT_EQ(*t.Find(view.substr(0, 6)), 3);
  EXPECT_EQ(t.Find(view), nullptr);
  EXPECT_EQ(t.Find(view.substr(0, 3)), nullptr);  // "/a/"
  // Erase through a view of another buffer holding the same characters.
  const std::string other = "/a/b";
  EXPECT_TRUE(t.Erase(std::string_view(other)));
  EXPECT_EQ(t.Find("/a/b"), nullptr);
  EXPECT_EQ(*t.Find("/a/b/c"), 3);
}

TEST(PathTableTest, ClearEmptiesTheTable) {
  PathTable<int> t;
  t.Insert("/a", 1);
  t.Clear();
  EXPECT_EQ(t.Find("/a"), nullptr);
  EXPECT_EQ(t.size(), 0u);
  t.Insert("/a", 2);
  EXPECT_EQ(*t.Find("/a"), 2);
}

TEST(SlabTest, IdsAndAddressesAreStable) {
  Slab<std::string, 4> slab;
  std::vector<std::uint32_t> ids;
  std::vector<const std::string*> addrs;
  for (int i = 0; i < 10; ++i) {  // spans three chunks
    ids.push_back(slab.Allocate());
    slab[ids.back()] = "s" + std::to_string(i);
    addrs.push_back(&slab[ids.back()]);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ids[i], static_cast<std::uint32_t>(i));
    EXPECT_EQ(&slab[ids[i]], addrs[i]);  // growth moved nothing
    EXPECT_EQ(slab[ids[i]], "s" + std::to_string(i));
  }
  EXPECT_EQ(slab.id_limit(), 10u);
  // Freed ids come back last-in first-out, holding their old state.
  slab.Free(3);
  slab.Free(7);
  EXPECT_EQ(slab.Allocate(), 7u);
  EXPECT_EQ(slab.Allocate(), 3u);
  EXPECT_EQ(slab[3], "s3");
  EXPECT_EQ(slab.Allocate(), 10u);
  EXPECT_EQ(slab.id_limit(), 11u);
}

}  // namespace
}  // namespace dufs
