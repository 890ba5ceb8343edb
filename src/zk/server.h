// Coordination-service server: ZAB-style leader-based quorum replication
// over the simulated cluster.
//
// Write path (paper §II-C): client -> session server -> (forward to) leader
// -> PROPOSE to all peers -> each peer journals (group commit) and ACKs ->
// leader commits on quorum, in zxid order -> COMMIT broadcast -> every
// replica applies to its Database in zxid order -> the origin server replies
// once *it* has applied the txn (read-your-writes per session server).
//
// Read path: served from the local replica through a serialized read
// pipeline — this is why read throughput scales with the ensemble size
// while write throughput falls (Fig. 7).
//
// Fault tolerance: leader pings; on silence the followers run a
// highest-zxid-wins election; the new leader syncs laggards from its
// committed-log history. Majority loss makes writes time out (tested).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rpc.h"
#include "obs/obs.h"
#include "sim/future.h"
#include "sim/sync.h"
#include "zk/database.h"
#include "zk/proto.h"
#include "zk/watch_table.h"

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
  // Leader group commit: coalesce concurrent write proposals into one
  // quorum round (one batched PROPOSE, one cumulative ACK per follower,
  // one COMMIT watermark), bounded by perf.max_journal_batch. The per-op
  // write_cpu stays serialized; the per-follower replication work is paid
  // once per batch. Off by default so the calibrated single-proposal
  // pipeline stays bit-identical.
  bool group_commit = false;
  bool enable_failure_detection = false;
  sim::Duration ping_interval = sim::Ms(40);
  sim::Duration election_timeout = sim::Ms(250);
  // Committed-log entries retained for follower catch-up; older gaps are
  // healed with a full snapshot transfer.
  std::size_t max_log_entries = 100'000;
  // Session expiry: 0 disables. When set, the server a session is attached
  // to expires it (replicated CloseSession -> ephemeral cleanup) after this
  // long without a request or heartbeat.
  sim::Duration session_timeout = 0;
};

// The committed-txn tail one replica keeps for syncing lagging followers
// (DESIGN.md §16): every txn's Txn::Encode bytes back to back in one
// buffer, indexed by (zxid, end offset), so an entry costs its encoding plus
// 16 index bytes and no heap object of its own. At most `max_entries` are
// kept; dropping the oldest raises truncated_upto(), and a follower that has
// not applied that zxid is sent a snapshot instead of a diff.
class CommittedLog {
 public:
  explicit CommittedLog(std::size_t max_entries) : max_entries_(max_entries) {}

  // `zxid` must exceed every zxid already in the log.
  void Append(Zxid zxid, const Txn& txn);
  // Empties the log after the replica's state was replaced wholesale (a
  // restore or a snapshot install) and now ends at `upto`.
  void Reset(Zxid upto);

  bool NeedsSnapshot(Zxid since) const { return since < truncated_upto_; }
  // The DIFF body for a follower that has applied `since`: the count of
  // newer entries, then each as WriteI64(zxid) + its stored txn bytes.
  void WriteDiff(Zxid since, wire::BufferWriter& w) const;

  std::size_t size() const { return index_.size(); }
  Zxid truncated_upto() const { return truncated_upto_; }

 private:
  struct Entry {
    Zxid zxid;
    std::uint64_t end;  // one past its last byte, counting dropped bytes
  };

  std::size_t max_entries_;
  std::deque<std::uint8_t> bytes_;
  std::deque<Entry> index_;
  std::uint64_t dropped_bytes_ = 0;  // popped off the front of bytes_
  Zxid truncated_upto_ = 0;          // highest zxid dropped from the tail
  wire::BufferWriter encoder_;       // reused by every Append
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
  const CommittedLog& committed_log() const { return committed_log_; }

  // Optional: request counters, queue-depth gauges, fsync-batch histogram,
  // and quorum-round / group-commit / fsync trace spans for this server.
  void AttachObs(obs::NodeObs node_obs);

 private:
  struct Proposal {
    Txn txn;
    std::set<net::NodeId> acks;  // deduplicated (retransmits re-ack)
    bool committed = false;
    sim::SimTime proposed_at = 0;  // quorum-round span start
  };

  std::size_t quorum() const { return config_.servers.size() / 2 + 1; }
  net::NodeId server_node(std::size_t idx) const {
    return config_.servers[idx];
  }
  Zxid MakeZxid() { return (epoch_ << 40) | static_cast<Zxid>(++zxid_counter_); }

  // RPC handlers.
  sim::Task<net::RpcResult> HandleRequest(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleForward(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandlePropose(net::NodeId from, net::Payload req);
  sim::Task<net::RpcResult> HandleAck(net::NodeId from, net::Payload req);
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

  // Write-path helpers.
  sim::Task<Result<ClientResponse>> SubmitWrite(Txn txn);
  // `zxid` is an out-param owned by the awaiting HandleRequest frame.
  // dufs-lint: allow(coro-ref-param)
  sim::Task<Result<ClientResponse>> SubmitWriteTracked(Txn txn, Zxid& zxid);
  Zxid ProposeAsLeader(Txn txn);  // returns the assigned zxid
  // Group-commit path: drains propose_queue_ in max_journal_batch-sized
  // waves, paying the per-follower replication cost once per wave.
  void ScheduleProposalFlush();
  sim::Task<void> FlushProposalQueue();
  void TryCommitInOrder();
  void MaybeScheduleRetransmit();
  void BroadcastCommit(Zxid zxid);
  void ApplyCommitted();
  sim::Task<bool> WaitApplied(Zxid zxid);  // false on give-up timeout
  void CompleteApplyWaiters();

  // Journal (group commit) pipeline.
  struct JournalEntry {
    Zxid zxid;
    std::size_t bytes;
    obs::TraceId trace = 0;
    sim::Promise<bool> done;
  };
  sim::Task<void> JournalLoop();
  sim::Task<void> JournalAppend(Zxid zxid, std::size_t bytes,
                                obs::TraceId trace = 0);

  // Full event log on (args are worth building) vs any span recording at
  // all (full log or flight recorder).
  bool tracing() const { return obs_.tracer != nullptr && obs_.tracer->enabled(); }
  bool recording() const {
    return obs_.tracer != nullptr && obs_.tracer->recording();
  }

  // Watches.
  void RegisterWatch(const Op& op, SessionId session, net::NodeId client);
  // Compound ops: one data watch per resolved component (plus the first
  // missing one on a partial miss), and for ReadDirPlus a child watch on
  // the directory + data watches on every listed entry — the server-side
  // mirror of the client seeding every one of those cache entries.
  void RegisterCompoundWatches(OpType type, const std::string& path,
                               const OpResult& result, SessionId session,
                               net::NodeId client);
  void FireTriggers(const std::vector<AppliedTxn::Trigger>& triggers);
  // Applies one committed txn to this replica: the database, then the watch
  // tables (a closed session's watches go, then the triggers fire).
  AppliedTxn ApplyTxn(const Txn& txn, Zxid zxid);

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
  std::map<Zxid, Proposal> proposals_;
  // Sequenced-but-not-yet-broadcast writes awaiting the next group-commit
  // wave (group_commit mode only; zxids are contiguous in queue order).
  std::vector<std::pair<Zxid, Txn>> propose_queue_;
  bool flush_scheduled_ = false;
  Zxid last_committed_ = 0;
  // Tail of the committed history (the on-disk log model) for syncing
  // lagging followers; bounded by config_.max_log_entries.
  CommittedLog committed_log_;

  // Replica state.
  std::map<Zxid, Txn> pending_txns_;   // proposed, not yet committed
  std::set<Zxid> committed_not_applied_;
  std::map<Zxid, std::vector<sim::Promise<bool>>> apply_waiters_;
  // Apply results cached for requests that originated at this server.
  std::set<Zxid> result_wanted_;
  std::map<Zxid, ClientResponse> local_results_;

  // Pipelines.
  std::unique_ptr<sim::Resource> read_pipeline_;
  std::unique_ptr<sim::Resource> write_pipeline_;
  std::unique_ptr<sim::Mailbox<JournalEntry>> journal_mb_;
  // Journal entries submitted but not yet fsynced. The group-commit flush
  // paces itself on this: while a disk sync is in flight, submitters keep
  // sequencing and the next quorum round picks them all up at once.
  std::size_t journal_pending_ = 0;

  // Watches registered at this server (DESIGN.md §13.4).
  WatchTable data_watches_;
  WatchTable child_watches_;
  // Reused by RegisterCompoundWatches for every prefix and child path.
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
  std::unordered_map<SessionId, sim::SimTime> session_activity_;

  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_committed_ = 0;
  std::uint64_t batch_rounds_ = 0;
  std::uint64_t proposals_batched_ = 0;
  std::uint64_t snapshot_syncs_ = 0;
  std::uint64_t diff_syncs_ = 0;

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
