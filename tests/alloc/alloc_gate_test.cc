// Allocation gate for the replicated write path. This binary replaces the
// global operator new with a counting one and pins upper bounds on the heap
// allocations of the steps every ZooKeeper replica runs per write, so a
// change that re-adds per-apply vectors, path copies or txn copies fails
// here rather than only showing up as host time in a benchmark.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "zk/database.h"
#include "zk/proto.h"

namespace {
std::size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return operator new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dufs::zk {
namespace {

constexpr std::uint8_t kDirTag = 'D';

// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t CountAllocs(Fn&& fn) {
  const std::size_t before = g_allocs;
  fn();
  return g_allocs - before;
}

std::vector<std::uint8_t> Record(std::uint8_t tag) {
  // A DUFS metadata record: the kind tag, then a fid-sized body.
  std::vector<std::uint8_t> data(40, 0x5a);
  data[0] = tag;
  return data;
}

// A replica holding /mdtest/d0/d1/d2, every component a directory, so a
// file under it is five components deep.
class WritePathAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* dir :
         {"/mdtest", "/mdtest/d0", "/mdtest/d0/d1", "/mdtest/d0/d1/d2"}) {
      ASSERT_TRUE(Apply(Op::Create(dir, Record(kDirTag)), true).result.ok());
    }
    // Warm the database's reused walk buffers, as any replica past its
    // first compound write has.
    ASSERT_TRUE(Apply(CreateFile("warm"), false).result.ok());
    ASSERT_TRUE(Apply(DeleteFile("warm"), false).result.ok());
  }

  static Op CreateFile(const std::string& name) {
    return Op::ResolveCreate("/mdtest/d0/d1/d2/" + name, Record('F'),
                             CreateMode::kPersistent, kDirTag, false);
  }
  static Op DeleteFile(const std::string& name) {
    return Op::ResolveDelete("/mdtest/d0/d1/d2/" + name, kAnyVersion, kDirTag,
                             false);
  }
  static Txn MakeTxn(Op op) {
    Txn txn;
    txn.session = 7;
    txn.time = 1'000'000;
    txn.trace = 12345;
    txn.op = std::move(op);
    return txn;
  }

  AppliedTxn Apply(Op op, bool reply) {
    ++zxid_;
    return db_.Apply(MakeTxn(std::move(op)), zxid_, 0, reply);
  }

  Database db_;
  Zxid zxid_ = 0;
};

// The bounds are the counts this write path reaches; raise one only with a
// reason the change itself gives.
//
// Create: the znode, its data, its child-map entry, the trigger list and
// the two trigger paths.
constexpr std::size_t kMaxResolveCreateAllocs = 6;
// Delete: the trigger list and the two trigger paths.
constexpr std::size_t kMaxResolveDeleteAllocs = 3;
// PROPOSE: the payload, reserved once at its exact size.
constexpr std::size_t kMaxProposeEncodeAllocs = 1;

TEST_F(WritePathAllocTest, NonAnsweringResolveCreate) {
  const Txn txn = MakeTxn(CreateFile("file.000017"));
  const std::size_t n = CountAllocs([&] {
    const AppliedTxn applied = db_.Apply(txn, ++zxid_, 0, /*reply=*/false);
    EXPECT_TRUE(applied.result.ok());
  });
  EXPECT_LE(n, kMaxResolveCreateAllocs);
  RecordProperty("allocs", static_cast<int>(n));
}

TEST_F(WritePathAllocTest, NonAnsweringResolveDelete) {
  ASSERT_TRUE(Apply(CreateFile("file.000017"), false).result.ok());
  const Txn txn = MakeTxn(DeleteFile("file.000017"));
  const std::size_t n = CountAllocs([&] {
    const AppliedTxn applied = db_.Apply(txn, ++zxid_, 0, /*reply=*/false);
    EXPECT_TRUE(applied.result.ok());
  });
  EXPECT_LE(n, kMaxResolveDeleteAllocs);
  RecordProperty("allocs", static_cast<int>(n));
}

// The answering replica pays for the reply on top; it must still come out
// of the same single walk.
TEST_F(WritePathAllocTest, AnsweringResolveCreateAddsOnlyTheReply) {
  const Txn txn = MakeTxn(CreateFile("file.000018"));
  const std::size_t n = CountAllocs([&] {
    const AppliedTxn applied = db_.Apply(txn, ++zxid_, 0, /*reply=*/true);
    EXPECT_EQ(applied.result.prefix.size(), 4u);
  });
  // The reply: the prefix vector, one data copy per prefix node and the
  // created path.
  EXPECT_LE(n, kMaxResolveCreateAllocs + 1 + 4 + 1);
}

TEST_F(WritePathAllocTest, ProposeEncode) {
  const Txn txn = MakeTxn(CreateFile("file.000017"));
  std::vector<std::uint8_t> payload;
  const std::size_t n = CountAllocs(
      [&] { payload = ProposeMsg::Encode(0x100000007, 1, txn); });
  EXPECT_LE(n, kMaxProposeEncodeAllocs);
  EXPECT_EQ(payload.size(), payload.capacity());
  auto decoded = ProposeMsg::Decode(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->zxid, 0x100000007);
  EXPECT_EQ(decoded->txn.op.path, txn.op.path);
}

}  // namespace
}  // namespace dufs::zk
