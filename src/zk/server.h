// Coordination-service server: ZAB-style leader-based quorum replication
// over the simulated cluster.
//
// Write path (paper §II-C): client -> session server -> (forward to) leader
// -> BATCH PROPOSE to all peers -> each peer journals (group commit) and
// ACKs the batch's zxid range -> leader commits on quorum, in zxid order ->
// COMMIT watermark broadcast -> every replica applies to its Database in
// zxid order -> the origin server replies once *it* has applied the txn
// (read-your-writes per session server).
//
// Read path: served from the local replica through a serialized read
// pipeline — this is why read throughput scales with the ensemble size
// while write throughput falls (Fig. 7).
//
// Fault tolerance: leader pings; on silence the followers run a
// highest-zxid-wins election; the new leader syncs laggards from its
// committed-log history. Majority loss makes writes time out (tested).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "net/rpc.h"
#include "obs/obs.h"
#include "sim/sync.h"
#include "sim/timed_waiters.h"
#include "zk/database.h"
#include "zk/proto.h"
#include "zk/watch_table.h"
#include "zk/zxid_queue.h"

namespace dufs::zk {

// Service-time constants for one server (calibrated; see DESIGN.md §4).
struct ZkPerfModel {
  sim::Duration read_cpu = sim::Us(45);       // local read, serialized
  sim::Duration write_cpu = sim::Us(50);      // leader request processing
  sim::Duration per_peer_cpu = sim::Us(26);   // leader cost per follower/txn
  sim::Duration follower_txn_cpu = sim::Us(20);
  sim::Duration apply_cpu = sim::Us(8);
  std::size_t max_journal_batch = 64;
};

struct ZkEnsembleConfig {
  std::vector<net::NodeId> servers;
  ZkPerfModel perf;
  // Leader sequencing policy. Off (the calibrated default): each write pays
  // write_cpu plus the per-follower work under the write pipeline and is
  // proposed at once as a batch of one. On (group commit): writes pay only
  // write_cpu and queue; fsync-paced waves of up to perf.max_journal_batch
  // pay the per-follower work once and share one BATCH PROPOSE, one range
  // ACK per follower and one quorum round. Both use the same protocol.
  bool group_commit = false;
  bool enable_failure_detection = false;
  sim::Duration ping_interval = sim::Ms(40);
  sim::Duration election_timeout = sim::Ms(250);
  // Committed-log entries retained for follower catch-up; older gaps are
  // healed with a full snapshot transfer. 500 is ZooKeeper's default
  // (zookeeper.commitLogCount; DESIGN.md §16).
  std::size_t max_log_entries = 500;
  // Session expiry: 0 disables. When set, the server a session is attached
  // to expires it (replicated CloseSession -> ephemeral cleanup) after this
  // long without a request or heartbeat.
  sim::Duration session_timeout = 0;
};

// The committed-txn tail one replica keeps for syncing lagging followers
// (DESIGN.md §16): every txn's encoded bytes back to back in a byte FIFO,
// indexed by an entry FIFO of (zxid, end offset), so an entry costs its
// encoding plus 16 index bytes and no heap object of its own. Both are
// rings of fixed 16 KiB blocks: a block the oldest end frees is reused for
// the next one the newest end needs, so once the log is full an Append
// allocates nothing, and a growing log holds at most one part-empty block
// of each. At most `max_entries` are kept; dropping the oldest raises
// truncated_upto(), and a follower that has not applied that zxid is sent
// a snapshot instead of a diff.
class CommittedLog {
 public:
  explicit CommittedLog(std::size_t max_entries) : max_entries_(max_entries) {}

  // Copies the encoded txn in. `zxid` must exceed every zxid already in
  // the log.
  void Append(Zxid zxid, std::span<const std::uint8_t> txn);
  void Append(Zxid zxid, const Txn& txn) { Append(zxid, txn.Encode()); }
  // Empties the log after the replica's state was replaced wholesale (a
  // restore or a snapshot install) and now ends at `upto`.
  void Reset(Zxid upto);

  bool NeedsSnapshot(Zxid since) const { return since < truncated_upto_; }
  // The DIFF body for a follower that has applied `since`: the count of
  // newer entries, then each as WriteI64(zxid) + its stored txn bytes.
  void WriteDiff(Zxid since, wire::BufferWriter& w) const;

  std::size_t size() const { return entries_.size(); }
  Zxid truncated_upto() const { return truncated_upto_; }

 private:
  // A FIFO of T in blocks of kBlock items, oldest first. The blocks in use
  // come first in blocks_ and the spares after them; a block the front
  // frees becomes a spare, and the back takes a spare before it allocates.
  template <typename T, std::size_t kBlock>
  class BlockRing {
   public:
    std::size_t size() const { return size_; }
    const T& operator[](std::size_t i) const {
      const std::size_t j = head_ + i;
      return blocks_[j / kBlock][j % kBlock];
    }
    void Append(const T* items, std::size_t n) {
      while (n > 0) {
        const std::size_t end = head_ + size_;
        if (end == used_ * kBlock) {
          if (used_ == blocks_.size()) {
            // Uninitialized: a page is touched only when written.
            blocks_.push_back(std::make_unique_for_overwrite<T[]>(kBlock));
          }
          ++used_;
        }
        const std::size_t run = std::min(n, kBlock - end % kBlock);
        std::copy_n(items, run, blocks_[end / kBlock].get() + end % kBlock);
        items += run;
        n -= run;
        size_ += run;
      }
    }
    void PopFront(std::size_t n) {
      head_ += n;
      size_ -= n;
      for (; head_ >= kBlock; head_ -= kBlock) {
        std::rotate(blocks_.begin(), blocks_.begin() + 1,
                    blocks_.begin() + static_cast<std::ptrdiff_t>(used_));
        --used_;
      }
    }
    // Calls `run(const T*, count)` on the items [from, to) in order, one
    // call per block they touch.
    template <typename Run>
    void ForEachRun(std::size_t from, std::size_t to, Run&& run) const {
      while (from < to) {
        const std::size_t j = head_ + from;
        const std::size_t n = std::min(to - from, kBlock - j % kBlock);
        run(blocks_[j / kBlock].get() + j % kBlock, n);
        from += n;
      }
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    std::size_t used_ = 0;  // leading blocks that hold items
    std::size_t head_ = 0;  // the oldest item's index in blocks_[0]
    std::size_t size_ = 0;
  };

  struct Entry {
    Zxid zxid;
    std::uint64_t end;  // logical offset one past its last byte
  };

  std::size_t max_entries_;
  BlockRing<std::uint8_t, 16384> bytes_;
  BlockRing<Entry, 1024> entries_;
  std::uint64_t begin_ = 0;  // logical offset of bytes_[0]
  Zxid truncated_upto_ = 0;  // highest zxid dropped from the tail
};

class ZkServer {
 public:
  enum class Role { kLooking, kFollowing, kLeading };

  ZkServer(net::RpcEndpoint& endpoint, ZkEnsembleConfig config,
           std::size_t my_index);

  // Registers RPC handlers and spawns the pipelines. Server 0 boots as the
  // epoch-1 leader (a fixed initial quorum, like a fresh ensemble start).
  void Start();

  // Crash/restart support: reinitializes volatile state from the last
  // snapshot + committed log is NOT retained (disk state is the journal);
  // our restart model restores from the snapshot taken at crash time, which
  // models journal replay.
  std::vector<std::uint8_t> TakeSnapshot() const { return db_->Snapshot(); }
  Status RestoreSnapshot(const std::vector<std::uint8_t>& snap);
  void OnRestart();  // rejoin the ensemble after net::Node::Restart()

  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeading; }
  std::size_t leader_index() const { return leader_index_; }
  std::int64_t epoch() const { return epoch_; }
  Zxid last_committed() const { return last_committed_; }
  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  net::NodeId node_id() const { return endpoint_.self(); }

  std::uint64_t reads_served() const { return reads_served_; }
  std::uint64_t writes_committed() const { return writes_committed_; }
  // Group-commit telemetry (leader only): quorum rounds flushed and the
  // proposals they carried; avg batch = proposals_batched / batch_rounds.
  std::uint64_t batch_rounds() const { return batch_rounds_; }
  std::uint64_t proposals_batched() const { return proposals_batched_; }
  // Catch-up telemetry: syncs this replica completed from a leader's full
  // snapshot vs from a diff of its committed log (an empty diff counts).
  std::uint64_t snapshot_syncs() const { return snapshot_syncs_; }
  std::uint64_t diff_syncs() const { return diff_syncs_; }
  // Txns a BATCH PROPOSE brought this follower that it already held: what
  // leader retransmits re-delivered.
  std::uint64_t redelivered_txns() const { return redelivered_txns_; }
  const CommittedLog& committed_log() const { return committed_log_; }

  // Optional: request counters, queue-depth gauges, fsync-batch histogram,
  // and quorum-round / group-commit / fsync trace spans for this server.
  void AttachObs(obs::NodeObs node_obs);

 private:
  // The txn itself stays in pending_txns_ (retransmits encode it from there).
  struct Proposal {
    Zxid zxid = 0;
    obs::TraceId trace = 0;
    std::uint64_t acks = 0;  // bit i: server i has it durable (retransmits
                             // re-ack the same bit)
    sim::SimTime proposed_at = 0;  // quorum-round span start

    std::size_t ack_count() const { return std::popcount(acks); }
  };
  // A proposed txn this replica holds until it applies it, read through
  // `txn`: the leader's sequenced bytes, or the BATCH PROPOSE payload it
  // arrived in (shared by a batch of more than one). Moving a vector keeps
  // its buffer, so `txn` stays valid as the entry moves.
  struct PendingTxn {
    Zxid zxid = 0;
    net::Payload bytes;
    std::shared_ptr<const net::Payload> batch;
    TxnView txn;
  };
  struct CommittedZxid {
    Zxid zxid = 0;
  };
  // A write a client waits for at this server: its reply, once applied.
  struct LocalResult {
    Zxid zxid = 0;
    bool applied = false;
    net::Payload reply;
  };
  // A write waiting at this server for its local apply: `wait` is its id
  // in apply_waits_.
  struct ApplyWaiter {
    Zxid zxid = 0;
    std::uint64_t wait = 0;
  };

  std::size_t quorum() const { return config_.servers.size() / 2 + 1; }
  net::NodeId server_node(std::size_t idx) const {
    return config_.servers[idx];
  }
  Zxid MakeZxid() { return (epoch_ << 40) | static_cast<Zxid>(++zxid_counter_); }
  // The bit of the server at `node` in Proposal::acks (0 for a non-member).
  std::uint64_t AckBit(net::NodeId node) const;

  // RPC handlers.
  sim::Task<net::RpcResult> HandleRequest(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleForward(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleBatchPropose(net::NodeId from,
                                               net::Payload req);
  sim::Task<net::RpcResult> HandleBatchAck(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleCommit(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleFollowerInfo(net::NodeId from,
                                               net::Payload req);
  sim::Task<net::RpcResult> HandlePing(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleSessionPing(net::NodeId from,
                                              net::Payload req);
  sim::Task<void> SessionExpiryLoop();
  sim::Task<net::RpcResult> HandleElectionVote(net::NodeId from,
                                               net::Payload req);

  // Write-path helpers. Each takes the txn as its encoded bytes (TxnView
  // reads them) and returns the encoded ClientResponse the client receives.
  sim::Task<Result<net::Payload>> SubmitWrite(net::Payload txn);
  // `zxid` is an out-param owned by the awaiting HandleForward frame.
  sim::Task<Result<net::Payload>> SubmitWriteTracked(
      net::Payload txn, Zxid& zxid);  // dufs-lint: allow(coro-ref-param)
  // Proposes a run of sequenced txns moved out of `batch` (one BATCH PROPOSE,
  // the self-ACK after one journal write); `proposed_at` starts each
  // proposal's quorum-round span.
  void ProposeBatch(std::span<BatchEntry> batch, sim::SimTime proposed_at);
  // Group commit: drains propose_queue_ in max_journal_batch-sized waves,
  // paying the per-follower replication cost once per wave.
  void ScheduleProposalFlush();
  sim::Task<void> FlushProposalQueue();
  // Marks [lo, hi] durable on the server with ACK bit `bit`, then commits.
  void AckRange(Zxid lo, Zxid hi, std::uint64_t bit);
  void TryCommitInOrder();
  // Arms the retransmit timer for when the oldest open proposal is one
  // period old, and no sooner than `min_delay` from now.
  static constexpr sim::Duration kRetransmitPeriod = sim::Ms(400);
  void MaybeScheduleRetransmit(sim::Duration min_delay = 0);
  // Sends `payload` to every other server whose bit (AckBit) is not in
  // `skip`.
  void Broadcast(std::uint16_t method, net::Payload payload,
                 std::uint64_t skip = 0);
  void ApplyCommitted();
  // False on giving up: a leader change can abandon the proposal, and the
  // waiter must not be stranded (the client sees kUnavailable and retries).
  static constexpr sim::Duration kApplyGiveUp = sim::Sec(3);
  sim::Task<bool> WaitApplied(Zxid zxid);
  void CompleteApplyWaiters();

  // Journal (group commit) pipeline. An entry holds its submitter, suspended
  // until the fsync that covers it, and resumes it from JournalLoop.
  struct JournalEntry {
    Zxid zxid = 0;
    std::size_t bytes = 0;
    obs::TraceId trace = 0;
    sim::SuspendedHandle waiter;  // owned until scheduled

    JournalEntry(Zxid z, std::size_t b, obs::TraceId t,
                 sim::SuspendedHandle w)
        : zxid(z), bytes(b), trace(t), waiter(w) {}
    JournalEntry(JournalEntry&& o) noexcept
        : zxid(o.zxid),
          bytes(o.bytes),
          trace(o.trace),
          waiter(std::exchange(o.waiter, sim::SuspendedHandle{})) {}
    // An entry dropped unscheduled (shutdown) frees its waiter's context.
    ~JournalEntry() { prof::FreeSnapshot(waiter.ctx); }
  };
  sim::Task<void> JournalLoop();
  sim::Task<void> JournalAppend(Zxid zxid, std::size_t bytes,
                                obs::TraceId trace = 0);

  // Watches.
  void RegisterWatch(const OpView& op, SessionId session, net::NodeId client);
  // Compound ops: one data watch per resolved component (plus the first
  // missing one on a partial miss), and for ReadDirPlus a child watch on
  // the directory + data watches on every listed entry — the server-side
  // mirror of the client seeding every one of those cache entries.
  void RegisterCompoundWatches(OpType type, std::string_view path,
                               const CompoundReply& reply, SessionId session,
                               net::NodeId client);
  // A compound op's encoded reply on its way to the client: counts the op,
  // records its depth and registers its watches from the bytes, then
  // returns the same bytes.
  net::Payload ServeCompound(OpType type, bool watch, std::string_view path,
                             net::Payload reply, SessionId session,
                             net::NodeId client);
  void FireTriggers(const std::vector<AppliedTxn::Trigger>& triggers);
  // Applies one committed txn to this replica: the database, then the watch
  // tables (a closed session's watches go, then the triggers fire). `reply`:
  // a client waits on this replica for the result (Database::Apply).
  AppliedTxn& ApplyTxn(const TxnView& txn, Zxid zxid, bool reply);

  // Failure detection & election.
  sim::Task<void> LeaderPingLoop(std::int64_t epoch_at_start);
  sim::Task<void> FollowerWatchdog();
  void StartElection();
  void MaybeDecideElection();
  sim::Task<void> BecomeLeader();
  void AdoptEpoch(std::int64_t epoch);
  sim::Task<void> SyncWithLeader(std::size_t leader_idx);

  net::RpcEndpoint& endpoint_;
  ZkEnsembleConfig config_;
  std::size_t my_index_;
  std::unique_ptr<Database> db_;

  Role role_ = Role::kFollowing;
  std::size_t leader_index_ = 0;
  std::int64_t epoch_ = 1;
  std::uint64_t zxid_counter_ = 0;

  // Leader state.
  ZxidQueue<Proposal> proposals_;
  // Writes sequenced under the write pipeline and not yet proposed, in zxid
  // order: without group commit the one write just sequenced, with it those
  // awaiting the next wave.
  std::vector<BatchEntry> propose_queue_;
  bool flush_scheduled_ = false;
  Zxid last_committed_ = 0;
  // Tail of the committed history (the on-disk log model) for syncing
  // lagging followers; bounded by config_.max_log_entries.
  CommittedLog committed_log_;

  // Replica state.
  ZxidQueue<PendingTxn> pending_txns_;  // proposed, not yet applied
  ZxidQueue<CommittedZxid> committed_not_applied_;
  ZxidQueue<ApplyWaiter> apply_waiters_;  // zxid order, then arrival order
  // The waits themselves, each in its WaitApplied frame; a restart clears
  // apply_waiters_, and its waits still give up on time.
  sim::TimedWaiters<bool> apply_waits_;
  // Requests that originated at this server, with their encoded replies.
  ZxidQueue<LocalResult> local_results_;

  // Pipelines.
  sim::FifoServer read_pipeline_;
  sim::FifoServer write_pipeline_;
  std::unique_ptr<sim::Mailbox<JournalEntry>> journal_mb_;
  std::vector<JournalEntry> journal_batch_;  // reused by every fsync
  // Journal entries submitted but not yet fsynced. The group-commit flush
  // paces itself on this: while a disk sync is in flight, submitters keep
  // sequencing and the next quorum round picks them all up at once.
  std::size_t journal_pending_ = 0;

  // Watches registered at this server (DESIGN.md §13.4).
  WatchTable data_watches_;
  WatchTable child_watches_;
  // Reused by RegisterCompoundWatches: the op path's components, and every
  // prefix and child path built from them.
  std::vector<std::string_view> watch_components_;
  std::string watch_path_;

  // Election state.
  struct Vote {
    Zxid zxid = 0;
    std::size_t candidate = 0;
    bool operator>(const Vote& o) const {
      if (zxid != o.zxid) return zxid > o.zxid;
      return candidate > o.candidate;
    }
  };
  Vote my_vote_;
  std::map<std::size_t, Vote> votes_received_;
  // Highest epoch any vote has carried (each carries its sender's epoch): a
  // new leader's epoch exceeds every epoch its electors have held.
  std::int64_t highest_voter_epoch_ = 0;
  std::int64_t election_round_ = 0;
  sim::SimTime last_ping_ = 0;
  bool started_ = false;
  bool syncing_ = false;
  bool retransmit_scheduled_ = false;
  // Sessions attached to this server -> last activity time.
  HashMap<SessionId, sim::SimTime> session_activity_;

  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_committed_ = 0;
  std::uint64_t batch_rounds_ = 0;
  std::uint64_t proposals_batched_ = 0;
  std::uint64_t snapshot_syncs_ = 0;
  std::uint64_t diff_syncs_ = 0;
  std::uint64_t redelivered_txns_ = 0;

  // Observability (default handles are no-op dummies; see obs/metrics.h).
  obs::NodeObs obs_;
  obs::Counter c_reads_;
  obs::Counter c_writes_;
  obs::Counter c_compound_;
  obs::Histogram h_resolve_depth_;
  obs::Gauge g_read_queue_;
  obs::Gauge g_write_queue_;
  obs::Gauge g_journal_pending_;
  obs::Histogram h_fsync_batch_;
};

}  // namespace dufs::zk
