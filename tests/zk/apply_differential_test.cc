// Differential test for reply shaping: a replica that answers the client
// and one that does not must end in the same state, report the same status
// codes and fire the same triggers in the same order (DESIGN.md §13.2).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "zk/database.h"

namespace dufs::zk {
namespace {

constexpr std::uint8_t kDir = 'D';
constexpr std::uint8_t kFile = 'F';
constexpr SessionId kSessions[] = {1, 2, 3};

// A small namespace (3 names, up to 4 deep) so random ops collide often:
// missing parents, duplicate creates, non-empty deletes, files used as
// directories and children of ephemerals all come up.
std::string RandomPath(Rng& rng) {
  static const char* const kNames[] = {"a", "b", "c"};
  const int depth = 1 + static_cast<int>(rng.NextBelow(4));
  std::string path;
  for (int i = 0; i < depth; ++i) {
    path += '/';
    path += kNames[rng.NextBelow(3)];
  }
  return path;
}

std::vector<std::uint8_t> RandomData(Rng& rng) {
  return {rng.NextBelow(3) == 0 ? kFile : kDir,
          static_cast<std::uint8_t>(rng.NextBelow(256))};
}

CreateMode RandomMode(Rng& rng) {
  // Mostly persistent, so the tree grows deep enough for the error paths.
  switch (rng.NextBelow(8)) {
    case 0: return CreateMode::kEphemeral;
    case 1: return CreateMode::kPersistentSequential;
    case 2: return CreateMode::kEphemeralSequential;
    default: return CreateMode::kPersistent;
  }
}

std::int32_t RandomVersion(Rng& rng) {
  return rng.NextBelow(2) == 0 ? kAnyVersion
                               : static_cast<std::int32_t>(rng.NextBelow(2));
}

Op RandomPlainOp(Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0: return Op::Create(RandomPath(rng), RandomData(rng), RandomMode(rng));
    case 1: return Op::Delete(RandomPath(rng), RandomVersion(rng));
    default: return Op::SetData(RandomPath(rng), RandomData(rng),
                                RandomVersion(rng));
  }
}

Txn RandomTxn(Rng& rng) {
  Txn txn;
  txn.session = kSessions[rng.NextBelow(3)];
  const std::uint8_t tag = rng.NextBelow(4) == 0 ? 0 : kDir;
  const auto pick = rng.NextBelow(20);
  if (pick < 8) {
    txn.op = Op::ResolveCreate(RandomPath(rng), RandomData(rng),
                               RandomMode(rng), tag, rng.NextBelow(2) == 0);
  } else if (pick < 13) {
    txn.op = Op::ResolveDelete(RandomPath(rng), RandomVersion(rng), tag,
                               rng.NextBelow(2) == 0);
  } else if (pick < 18) {
    txn.op = RandomPlainOp(rng);
  } else if (pick < 19) {
    txn.op.type = OpType::kMulti;
    const auto n = 1 + rng.NextBelow(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      Op op = RandomPlainOp(rng);
      if (op.type == OpType::kCreate && IsSequential(op.mode)) {
        op.mode = CreateMode::kPersistent;  // multi rejects sequential
      }
      txn.multi_ops.push_back(std::move(op));
    }
  } else {
    // Close a session (its ephemerals go) and open it again.
    txn.op.type = rng.NextBelow(2) == 0 ? OpType::kCloseSession
                                        : OpType::kCreateSession;
  }
  return txn;
}

void ExpectSameTriggers(const std::vector<AppliedTxn::Trigger>& a,
                        const std::vector<AppliedTxn::Trigger>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].path, b[i].path) << i;
  }
}

TEST(ApplyDifferentialTest, ReplyShapingChangesNothingButTheReply) {
  std::set<StatusCode> compound_codes;
  std::set<StatusCode> plain_codes;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Database answering;
    Database silent;
    Rng rng(seed);
    Zxid zxid = 0;
    for (SessionId s : kSessions) {
      Txn open;
      open.session = s;
      open.op.type = OpType::kCreateSession;
      ++zxid;
      answering.Apply(open, zxid, zxid * 10, /*reply=*/true);
      silent.Apply(open, zxid, zxid * 10, /*reply=*/false);
    }
    for (int i = 0; i < 3000; ++i) {
      const Txn txn = RandomTxn(rng);
      ++zxid;
      const AppliedTxn a = answering.Apply(txn, zxid, zxid * 10, true);
      const AppliedTxn b = silent.Apply(txn, zxid, zxid * 10, false);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " op " << i << " "
                   << OpTypeName(txn.op.type) << " " << txn.op.path);
      ASSERT_EQ(a.result.code, b.result.code);
      ASSERT_EQ(a.multi_results.size(), b.multi_results.size());
      for (std::size_t k = 0; k < a.multi_results.size(); ++k) {
        EXPECT_EQ(a.multi_results[k].code, b.multi_results[k].code);
      }
      ExpectSameTriggers(a.triggers, b.triggers);
      ASSERT_EQ(answering.Fingerprint(), silent.Fingerprint());
      if (IsCompound(txn.op.type)) {
        compound_codes.insert(a.result.code);
        // The answering replica encoded the reply, with the same code; the
        // silent one encoded nothing.
        auto reply = CompoundReply::Decode(a.reply);
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->code(), a.result.code);
        EXPECT_TRUE(b.reply.empty());
      } else {
        plain_codes.insert(a.result.code);
        EXPECT_TRUE(a.reply.empty());
      }
    }
  }
  // The soup reached every path the test is meant to cover.
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kNotADirectory,
        StatusCode::kAlreadyExists, StatusCode::kNotEmpty,
        StatusCode::kBadVersion, StatusCode::kIsADirectory,
        StatusCode::kInvalidArgument}) {
    EXPECT_EQ(compound_codes.count(code), 1u) << static_cast<int>(code);
  }
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kNotEmpty, StatusCode::kBadVersion,
        StatusCode::kInvalidArgument}) {
    EXPECT_EQ(plain_codes.count(code), 1u) << static_cast<int>(code);
  }
}

}  // namespace
}  // namespace dufs::zk
