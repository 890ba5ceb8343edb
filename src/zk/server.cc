#include "zk/server.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dufs::zk {
namespace {

// Internal peer-message codecs.
struct ProposeMsg {
  Zxid zxid;
  std::int64_t epoch;
  Txn txn;

  net::Payload Encode() const {
    wire::BufferWriter w;
    w.WriteI64(zxid);
    w.WriteI64(epoch);
    txn.Encode(w);
    return w.Take();
  }
  static Result<ProposeMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    ProposeMsg m;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    m.zxid = *zxid;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto txn = Txn::Decode(r);
    DUFS_RETURN_IF_ERROR(txn);
    m.txn = std::move(*txn);
    return m;
  }
};

// A contiguous run of sequenced proposals shipped as one message (group
// commit). The follower journals the run with one fsync and ACKs the whole
// [lo, hi] zxid range back.
struct BatchProposeMsg {
  std::int64_t epoch;
  std::vector<std::pair<Zxid, Txn>> entries;

  net::Payload Encode() const {
    wire::BufferWriter w;
    w.WriteI64(epoch);
    w.WriteVarint(entries.size());
    for (const auto& [zxid, txn] : entries) {
      w.WriteI64(zxid);
      txn.Encode(w);
    }
    return w.Take();
  }
  static Result<BatchProposeMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    BatchProposeMsg m;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto count = r.ReadVarint();
    DUFS_RETURN_IF_ERROR(count);
    m.entries.reserve(*count);
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto zxid = r.ReadI64();
      DUFS_RETURN_IF_ERROR(zxid);
      auto txn = Txn::Decode(r);
      DUFS_RETURN_IF_ERROR(txn);
      m.entries.emplace_back(*zxid, std::move(*txn));
    }
    return m;
  }
};

net::Payload EncodeZxid(Zxid zxid) {
  wire::BufferWriter w;
  w.WriteI64(zxid);
  return w.Take();
}

net::Payload EncodeZxidRange(Zxid lo, Zxid hi) {
  wire::BufferWriter w;
  w.WriteI64(lo);
  w.WriteI64(hi);
  return w.Take();
}

Result<Zxid> DecodeZxid(const net::Payload& bytes) {
  wire::BufferReader r(bytes);
  return r.ReadI64();
}

struct ForwardResponse {
  Zxid zxid = 0;
  ClientResponse response;

  net::Payload Encode() const {
    wire::BufferWriter w;
    w.WriteI64(zxid);
    w.WriteBytes(response.Encode());
    return w.Take();
  }
  static Result<ForwardResponse> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    ForwardResponse f;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    f.zxid = *zxid;
    auto blob = r.ReadBytes();
    DUFS_RETURN_IF_ERROR(blob);
    auto resp = ClientResponse::Decode(*blob);
    DUFS_RETURN_IF_ERROR(resp);
    f.response = std::move(*resp);
    return f;
  }
};

struct VoteMsg {
  std::int64_t round;
  std::int64_t epoch;  // the sender's own epoch, whoever it votes for
  Zxid zxid;
  std::uint64_t candidate;
  std::uint64_t from;

  net::Payload Encode() const {
    wire::BufferWriter w;
    w.WriteI64(round);
    w.WriteI64(epoch);
    w.WriteI64(zxid);
    w.WriteU64(candidate);
    w.WriteU64(from);
    return w.Take();
  }
  static Result<VoteMsg> Decode(const net::Payload& bytes) {
    wire::BufferReader r(bytes);
    VoteMsg m;
    auto round = r.ReadI64();
    DUFS_RETURN_IF_ERROR(round);
    m.round = *round;
    auto epoch = r.ReadI64();
    DUFS_RETURN_IF_ERROR(epoch);
    m.epoch = *epoch;
    auto zxid = r.ReadI64();
    DUFS_RETURN_IF_ERROR(zxid);
    m.zxid = *zxid;
    auto cand = r.ReadU64();
    DUFS_RETURN_IF_ERROR(cand);
    m.candidate = *cand;
    auto from = r.ReadU64();
    DUFS_RETURN_IF_ERROR(from);
    m.from = *from;
    return m;
  }
};

ClientResponse UnavailableResponse() {
  ClientResponse resp;
  resp.result.code = StatusCode::kUnavailable;
  return resp;
}

}  // namespace

// ------------------------------------------------------- committed log ----

void CommittedLog::Append(Zxid zxid, const Txn& txn) {
  encoder_.Clear();
  txn.Encode(encoder_);
  bytes_.insert(bytes_.end(), encoder_.data().begin(), encoder_.data().end());
  index_.push_back({zxid, dropped_bytes_ + bytes_.size()});
  if (index_.size() > max_entries_) {
    // Older followers resync via snapshot.
    const std::uint64_t front_bytes = index_.front().end - dropped_bytes_;
    truncated_upto_ = index_.front().zxid;
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(front_bytes));
    dropped_bytes_ += front_bytes;
    index_.pop_front();
  }
}

void CommittedLog::Reset(Zxid upto) {
  bytes_.clear();
  index_.clear();
  dropped_bytes_ = 0;
  truncated_upto_ = upto;
}

void CommittedLog::WriteDiff(Zxid since, wire::BufferWriter& w) const {
  // Zxids only grow along the log, so the entries after `since` are a suffix.
  const auto first =
      std::partition_point(index_.begin(), index_.end(),
                           [since](const Entry& e) { return e.zxid <= since; });
  w.WriteVarint(static_cast<std::uint64_t>(index_.end() - first));
  auto at = [this](std::uint64_t offset) {
    return bytes_.begin() +
           static_cast<std::ptrdiff_t>(offset - dropped_bytes_);
  };
  std::uint64_t begin =
      first == index_.begin() ? dropped_bytes_ : std::prev(first)->end;
  for (auto it = first; it != index_.end(); ++it) {
    w.WriteI64(it->zxid);
    w.WriteRaw(at(begin), at(it->end));
    begin = it->end;
  }
}

// ------------------------------------------------------------- server ----

ZkServer::ZkServer(net::RpcEndpoint& endpoint, ZkEnsembleConfig config,
                   std::size_t my_index)
    : endpoint_(endpoint),
      config_(std::move(config)),
      my_index_(my_index),
      db_(std::make_unique<Database>()),
      committed_log_(config_.max_log_entries) {
  DUFS_CHECK(my_index_ < config_.servers.size());
  DUFS_CHECK(config_.servers[my_index_] == endpoint_.self());
}

void ZkServer::Start() {
  DUFS_CHECK(!started_);
  started_ = true;
  // The bound closures live in the endpoint's handler map; `this` outlives
  // them, and the inner lambda is not itself a coroutine (it forwards to a
  // member coroutine whose frame holds `this` via the implicit parameter).
  auto bind = [this](auto method_fn) {
    return [this, method_fn](net::NodeId from,  // dufs-lint: allow(coro-capture-ref)
                             net::Payload req) -> sim::Task<net::RpcResult> {
      return (this->*method_fn)(from, std::move(req));
    };
  };
  endpoint_.RegisterHandler(method::kRequest, bind(&ZkServer::HandleRequest));
  endpoint_.RegisterHandler(method::kForward, bind(&ZkServer::HandleForward));
  endpoint_.RegisterHandler(method::kPropose, bind(&ZkServer::HandlePropose));
  endpoint_.RegisterHandler(method::kAckProposal, bind(&ZkServer::HandleAck));
  endpoint_.RegisterHandler(method::kBatchPropose,
                            bind(&ZkServer::HandleBatchPropose));
  endpoint_.RegisterHandler(method::kBatchAck,
                            bind(&ZkServer::HandleBatchAck));
  endpoint_.RegisterHandler(method::kCommit, bind(&ZkServer::HandleCommit));
  endpoint_.RegisterHandler(method::kFollowerInfo,
                            bind(&ZkServer::HandleFollowerInfo));
  endpoint_.RegisterHandler(method::kPing, bind(&ZkServer::HandlePing));
  endpoint_.RegisterHandler(method::kElectionVote,
                            bind(&ZkServer::HandleElectionVote));
  endpoint_.RegisterHandler(method::kSessionPing,
                            bind(&ZkServer::HandleSessionPing));

  read_pipeline_ = std::make_unique<sim::Resource>(endpoint_.sim(), 1);
  write_pipeline_ = std::make_unique<sim::Resource>(endpoint_.sim(), 1);
  journal_mb_ = std::make_unique<sim::Mailbox<JournalEntry>>(endpoint_.sim());

  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(JournalLoop());
  if (config_.session_timeout > 0) {
    endpoint_.sim().Spawn(SessionExpiryLoop());
  }

  if (my_index_ == 0) {
    role_ = Role::kLeading;
    leader_index_ = 0;
    if (config_.enable_failure_detection) {
      endpoint_.sim().Spawn(LeaderPingLoop(epoch_));
    }
  } else {
    role_ = Role::kFollowing;
    leader_index_ = 0;
    last_ping_ = endpoint_.sim().now();
    if (config_.enable_failure_detection) {
      endpoint_.sim().Spawn(FollowerWatchdog());
    }
  }
}

Status ZkServer::RestoreSnapshot(const std::vector<std::uint8_t>& snap) {
  auto db = Database::Restore(snap);
  DUFS_RETURN_IF_ERROR(db);
  db_ = std::move(*db);
  return Status::Ok();
}

void ZkServer::OnRestart() {
  // Volatile replication state is gone; the Database reflects the journal
  // replay (RestoreSnapshot). Rejoin by looking for the current leader.
  proposals_.clear();
  propose_queue_.clear();
  flush_scheduled_ = false;
  journal_pending_ = 0;
  pending_txns_.clear();
  committed_not_applied_.clear();
  apply_waiters_.clear();
  result_wanted_.clear();
  local_results_.clear();
  last_committed_ = db_->last_applied();
  // The in-memory log may disagree with the restored snapshot; drop it and
  // serve any pre-restore sync requests with a full snapshot instead.
  committed_log_.Reset(db_->last_applied());
  // The epoch stays: a follower adopts the sitting leader's, and only a
  // server that takes leadership moves to a new one. BecomeLeader picks one
  // above every epoch its electors hold, so zxids are never reused.
  zxid_counter_ = 0;
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  if (config_.enable_failure_detection) {
    role_ = Role::kLooking;
    StartElection();
    endpoint_.sim().Spawn(FollowerWatchdog());
  } else {
    // Static-leader mode: resync from server 0.
    role_ = Role::kFollowing;
    leader_index_ = 0;
    if (my_index_ == 0) {
      role_ = Role::kLeading;
      epoch_ = std::max<std::int64_t>(epoch_, db_->last_applied() >> 40) + 1;
    } else {
      endpoint_.sim().Spawn(SyncWithLeader(0));
    }
  }
}

// -------------------------------------------------------- observability ----

void ZkServer::AttachObs(obs::NodeObs node_obs) {
  obs_ = node_obs;
  c_reads_ = obs_.counter("zk.reads");
  c_writes_ = obs_.counter("zk.writes");
  c_compound_ = obs_.counter("zk.compound_ops");
  h_resolve_depth_ = obs_.histogram("zk.resolve_depth");
  g_read_queue_ = obs_.gauge("zk.read_queue");
  g_write_queue_ = obs_.gauge("zk.write_queue");
  g_journal_pending_ = obs_.gauge("journal.pending");
  h_fsync_batch_ = obs_.histogram("journal.fsync_batch");
}

// --------------------------------------------------------------- reads ----

sim::Task<net::RpcResult> ZkServer::HandleRequest(net::NodeId from,
                                                  net::Payload req_bytes) {
  auto req = ClientRequest::Decode(req_bytes);
  if (!req.ok()) co_return req.status();
  if (req->session != 0) {
    session_activity_[req->session] = endpoint_.sim().now();
    if (req->op.type == OpType::kCloseSession) {
      session_activity_.erase(req->session);
    }
  }

  if (IsWrite(req->op.type) || req->op.type == OpType::kSync) {
    c_writes_.Inc();
    const auto write_depth =
        static_cast<std::int64_t>(write_pipeline_->queue_length());
    g_write_queue_.Set(write_depth);
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordQueueDepth(obs_.track, write_depth);
    }
    // Server-side work runs on this node's coroutine stack, not the
    // client's: root the profiler attribution at the node frame.
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    obs::Span span(obs_.tracer, obs_.track, "zk-write", "zk", req->trace);
    // Compound writes register watches *here* on the session server after
    // the txn applies (the replicated state machine stays watch-free); the
    // op fields needed for that outlive the move below.
    const OpType op_type = req->op.type;
    const bool op_watch = req->op.watch;
    std::string op_path = IsCompound(op_type) ? req->op.path : std::string();
    Txn txn;
    txn.session = req->session;
    txn.trace = req->trace;
    txn.op = std::move(req->op);
    txn.multi_ops = std::move(req->multi_ops);
    auto resp = co_await SubmitWrite(std::move(txn));
    if (!resp.ok()) co_return UnavailableResponse().Encode();
    if (IsCompound(op_type)) {
      c_compound_.Inc();
      h_resolve_depth_.Record(
          static_cast<std::int64_t>(resp->result.resolved_depth));
      if (op_watch) {
        RegisterCompoundWatches(op_type, op_path, resp->result, req->session,
                                from);
      }
    }
    co_return resp->Encode();
  }

  // Local read through the serialized read pipeline.
  c_reads_.Inc();
  const auto read_depth =
      static_cast<std::int64_t>(read_pipeline_->queue_length());
  g_read_queue_.Set(read_depth);
  if (obs_.incidents != nullptr) {
    obs_.incidents->RecordQueueDepth(obs_.track, read_depth);
  }
  prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
  obs::Span span(obs_.tracer, obs_.track, "zk-read", "zk", req->trace);
  {
    auto guard = co_await read_pipeline_->Acquire();
    co_await endpoint_.sim().Delay(config_.perf.read_cpu);
  }
  ClientResponse resp;
  resp.result = db_->Read(req->op);
  if (IsCompound(req->op.type)) {
    c_compound_.Inc();
    h_resolve_depth_.Record(
        static_cast<std::int64_t>(resp.result.resolved_depth));
    if (req->op.watch) {
      RegisterCompoundWatches(req->op.type, req->op.path, resp.result,
                              req->session, from);
    }
  } else if (req->op.watch) {
    RegisterWatch(req->op, req->session, from);
  }
  ++reads_served_;
  co_return resp.Encode();
}

void ZkServer::RegisterWatch(const Op& op, SessionId session,
                             net::NodeId client) {
  switch (op.type) {
    case OpType::kGetData:
    case OpType::kExists:
      data_watches_.Add(op.path, {session, client});
      break;
    case OpType::kGetChildren:
      child_watches_.Add(op.path, {session, client});
      break;
    default:
      break;
  }
}

void ZkServer::RegisterCompoundWatches(OpType type, const std::string& path,
                                       const OpResult& result,
                                       SessionId session,
                                       net::NodeId client) {
  const auto components = PathComponents(path);
  const WatchTable::Watcher watcher{session, client};
  // Data watch on every component the walk resolved. resolved_depth may
  // exceed prefix.size() by one (the terminal rides stat/data), and for a
  // successful ResolveDelete it is one *less* than the walk reached — the
  // deleted terminal must not be re-watched, or the watch would never fire.
  // Every prefix, and below every child path, is built in one reused buffer.
  std::string& znode_path = watch_path_;
  znode_path.clear();
  const std::size_t watched =
      std::min<std::size_t>(result.resolved_depth, components.size());
  for (std::size_t i = 0; i < watched; ++i) {
    znode_path.push_back('/');
    znode_path.append(components[i]);
    data_watches_.Add(znode_path, watcher);
  }
  // Partial miss: an existence watch on the first missing component keeps
  // the client's negative cache entry coherent (kNodeCreated fires it).
  if (watched < components.size()) {
    znode_path.push_back('/');
    znode_path.append(components[watched]);
    data_watches_.Add(znode_path, watcher);
    return;
  }
  if (type == OpType::kReadDirPlus && result.ok()) {
    // The listing seeds one positive cache entry per child: mirror it with
    // a child watch on the directory plus a data watch per entry.
    child_watches_.Add(path, watcher);
    znode_path.assign(path);
    if (path != "/") znode_path.push_back('/');
    const std::size_t dir_len = znode_path.size();
    for (const auto& entry : result.entries) {
      znode_path.resize(dir_len);
      znode_path.append(entry.name);
      data_watches_.Add(znode_path, watcher);
    }
  }
}

void ZkServer::FireTriggers(const std::vector<AppliedTxn::Trigger>& triggers) {
  for (const auto& trig : triggers) {
    auto& table = trig.type == WatchEventType::kNodeChildrenChanged
                      ? child_watches_
                      : data_watches_;
    for (const WatchTable::Watcher& watcher : table.Take(trig.path)) {
      WatchEvent ev;
      ev.type = trig.type;
      ev.path = trig.path;
      ev.session = watcher.session;
      endpoint_.Notify(watcher.client, method::kWatchEvent, ev.Encode());
    }
  }
}

AppliedTxn ZkServer::ApplyTxn(const Txn& txn, Zxid zxid) {
  AppliedTxn applied = db_->Apply(txn, zxid, endpoint_.sim().now());
  if (txn.op.type == OpType::kCloseSession) {
    // Like ZooKeeper, a closed session's watches go with it, so the
    // deletes of its ephemerals below notify only sessions still open.
    data_watches_.DropSession(txn.session);
    child_watches_.DropSession(txn.session);
  }
  FireTriggers(applied.triggers);
  return applied;
}

// -------------------------------------------------------------- writes ----

sim::Task<Result<ClientResponse>> ZkServer::SubmitWrite(Txn txn) {
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(txn), zxid);
  co_return resp;
}

sim::Task<Result<ClientResponse>> ZkServer::SubmitWriteTracked(Txn txn,
                                                               Zxid& zxid) {  // dufs-lint: allow(coro-ref-param)
  if (role_ == Role::kLeading) {
    {
      // The leader's single request-processor thread: serialization +
      // per-follower replication work. This stage is the write-throughput
      // limiter and the reason Fig. 7's write curves fall as servers are
      // added.
      auto guard = co_await write_pipeline_->Acquire();
      if (config_.group_commit) {
        // Group commit: the per-op stage pays only the serialization cost
        // and assigns the zxid under the guard (preserving order); the
        // per-follower replication work is paid once per batch by the
        // flush task, which queues behind the submitters on this pipeline.
        co_await endpoint_.sim().Delay(config_.perf.write_cpu);
        zxid = MakeZxid();
        txn.time = endpoint_.sim().now();
        propose_queue_.emplace_back(zxid, std::move(txn));
      } else {
        const auto peers =
            static_cast<sim::Duration>(config_.servers.size() - 1);
        co_await endpoint_.sim().Delay(config_.perf.write_cpu +
                                       peers * config_.perf.per_peer_cpu);
      }
    }
    if (config_.group_commit) {
      ScheduleProposalFlush();
    } else {
      zxid = ProposeAsLeader(std::move(txn));
    }
    result_wanted_.insert(zxid);
    const bool applied = co_await WaitApplied(zxid);
    if (!applied) {
      result_wanted_.erase(zxid);
      co_return Status(StatusCode::kUnavailable, "commit timed out");
    }
    auto it = local_results_.find(zxid);
    if (it == local_results_.end()) {
      co_return Status(StatusCode::kInternal, "missing local result");
    }
    ClientResponse resp = std::move(it->second);
    local_results_.erase(it);
    co_return resp;
  }

  // Follower: forward to the leader, then wait until the local replica has
  // applied the txn so this session observes its own write.
  wire::BufferWriter w;
  txn.Encode(w);
  auto result = co_await endpoint_.Call(server_node(leader_index_),
                                        method::kForward, w.Take(),
                                        /*timeout=*/sim::Sec(2));
  if (!result.ok()) co_return result.status();
  auto fwd = ForwardResponse::Decode(*result);
  if (!fwd.ok()) co_return fwd.status();
  zxid = fwd->zxid;
  (void)co_await WaitApplied(fwd->zxid);
  co_return std::move(fwd->response);
}

sim::Task<net::RpcResult> ZkServer::HandleForward(net::NodeId /*from*/,
                                                  net::Payload req) {
  wire::BufferReader r(req);
  auto txn = Txn::Decode(r);
  if (!txn.ok()) co_return txn.status();
  if (role_ != Role::kLeading) {
    // Stale leadership information at the forwarder; let it time out and
    // retry after discovering the new leader.
    co_return Status(StatusCode::kUnavailable, "not the leader");
  }
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(*txn), zxid);
  if (!resp.ok()) co_return resp.status();
  ForwardResponse fwd;
  fwd.zxid = zxid;
  fwd.response = std::move(*resp);
  co_return fwd.Encode();
}

Zxid ZkServer::ProposeAsLeader(Txn txn) {
  DUFS_CHECK(role_ == Role::kLeading);
  const Zxid zxid = MakeZxid();
  txn.time = endpoint_.sim().now();  // replica-identical ctime/mtime stamps
  const std::size_t txn_bytes = txn.EncodedSize();
  const obs::TraceId trace = txn.trace;

  ProposeMsg msg{zxid, epoch_, txn};
  const auto payload = msg.Encode();
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kPropose, payload);
  }

  pending_txns_.emplace(zxid, std::move(txn));
  proposals_.emplace(zxid, Proposal{pending_txns_.at(zxid), {}, false,
                                    endpoint_.sim().now()});
  MaybeScheduleRetransmit();

  // Self-ack after the local journal write.
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(
      [](ZkServer& self, Zxid z, std::size_t bytes,
         obs::TraceId tr) -> sim::Task<void> {
        co_await self.JournalAppend(z, bytes, tr);
        auto it = self.proposals_.find(z);
        if (it == self.proposals_.end()) co_return;
        it->second.acks.insert(self.endpoint_.self());
        self.TryCommitInOrder();
      }(*this, zxid, txn_bytes, trace));
  return zxid;
}

void ZkServer::ScheduleProposalFlush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(FlushProposalQueue());
}

// Drains propose_queue_ in batches. The batching window is implicit: the
// flush task queues on the write pipeline *behind* every submitter that is
// currently sequencing, so one wave picks up everything that accumulated
// while the previous wave was broadcasting (classic group commit, same
// shape as JournalLoop below).
sim::Task<void> ZkServer::FlushProposalQueue() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  while (!propose_queue_.empty()) {
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (role_ != Role::kLeading || !endpoint_.node().up()) {
      // Deposed or crashed mid-queue: abandon — submitters time out and
      // their clients retry against the new leader.
      propose_queue_.clear();
      break;
    }
    // Pace quorum rounds to journal-fsync cycles (classic group commit):
    // while the previous round's disk sync is in flight, submitters keep
    // sequencing onto the queue, so each fsync carries one big batch
    // instead of many tiny ones. No fsync in flight -> no added latency.
    while (journal_pending_ > 0) {
      co_await endpoint_.sim().Delay(sim::Us(200));
      if (endpoint_.node().incarnation() != incarnation) co_return;
    }
    if (role_ != Role::kLeading || !endpoint_.node().up()) continue;
    auto guard = co_await write_pipeline_->Acquire();
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (propose_queue_.empty()) break;
    const std::size_t n =
        std::min(propose_queue_.size(), config_.perf.max_journal_batch);
    std::vector<std::pair<Zxid, Txn>> batch(
        std::make_move_iterator(propose_queue_.begin()),
        std::make_move_iterator(propose_queue_.begin() +
                                static_cast<std::ptrdiff_t>(n)));
    propose_queue_.erase(propose_queue_.begin(),
                         propose_queue_.begin() +
                             static_cast<std::ptrdiff_t>(n));
    ++batch_rounds_;
    proposals_batched_ += n;
    const sim::SimTime wave_start = endpoint_.sim().now();
    const obs::TraceId wave_trace = batch.front().second.trace;
    // Per-follower replication bookkeeping, amortized over the batch.
    const auto peers = static_cast<sim::Duration>(config_.servers.size() - 1);
    co_await endpoint_.sim().Delay(peers * config_.perf.per_peer_cpu);

    BatchProposeMsg msg{epoch_, batch};
    const auto payload = msg.Encode();
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kBatchPropose, payload);
    }

    const Zxid lo = batch.front().first;
    const Zxid hi = batch.back().first;
    std::size_t total_bytes = 0;
    for (auto& [zxid, txn] : batch) {
      total_bytes += txn.EncodedSize();
      pending_txns_.emplace(zxid, std::move(txn));
      proposals_.emplace(zxid, Proposal{pending_txns_.at(zxid), {}, false,
                                        wave_start});
    }
    MaybeScheduleRetransmit();

    if (recording()) {
      // One span per quorum wave, attributed to the first txn's trace.
      // Args only when the full event log wants them (flight records are
      // POD; no arg vector on the flight-only path).
      std::vector<obs::Tracer::Arg> args;
      if (tracing()) {
        args = {{"batch", {}, static_cast<std::int64_t>(n), false},
                {"zxid_lo", {}, static_cast<std::int64_t>(lo), false},
                {"zxid_hi", {}, static_cast<std::int64_t>(hi), false}};
      }
      obs_.tracer->Complete(obs_.track, "group-commit-flush", "zab",
                            wave_start, endpoint_.sim().now() - wave_start,
                            wave_trace, std::move(args));
    }

    // Self-ack the whole run after one local group-commit fsync.
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(
        [](ZkServer& self, Zxid lo_z, Zxid hi_z, std::size_t bytes,
           obs::TraceId tr) -> sim::Task<void> {
          co_await self.JournalAppend(hi_z, bytes, tr);
          for (auto it = self.proposals_.lower_bound(lo_z);
               it != self.proposals_.end() && it->first <= hi_z; ++it) {
            it->second.acks.insert(self.endpoint_.self());
          }
          self.TryCommitInOrder();
        }(*this, lo, hi, total_bytes, wave_trace));
  }
  flush_scheduled_ = false;
  // A submitter may have enqueued between the last drain and the flag
  // reset; make sure nothing is stranded.
  if (!propose_queue_.empty()) ScheduleProposalFlush();
}

// Lost PROPOSE/ACK messages (partitions, crashes) must not wedge the commit
// pipeline: while any proposal is outstanding, periodically re-broadcast
// the head of the queue. The timer chain self-terminates when the queue
// empties, so idle ensembles still drain the event loop.
void ZkServer::MaybeScheduleRetransmit() {
  if (retransmit_scheduled_ || proposals_.empty()) return;
  retransmit_scheduled_ = true;
  endpoint_.sim().ScheduleFn(sim::Ms(400), [this] {
    retransmit_scheduled_ = false;
    if (role_ != Role::kLeading || !endpoint_.node().up()) return;
    std::size_t sent = 0;
    for (const auto& [zxid, proposal] : proposals_) {
      ProposeMsg msg{zxid, epoch_, proposal.txn};
      const auto payload = msg.Encode();
      for (std::size_t i = 0; i < config_.servers.size(); ++i) {
        if (i == my_index_) continue;
        if (proposal.acks.count(server_node(i)) > 0) continue;
        endpoint_.Notify(server_node(i), method::kPropose, payload);
      }
      if (++sent >= 16) break;  // head of the queue commits first anyway
    }
    MaybeScheduleRetransmit();
  });
}

sim::Task<net::RpcResult> ZkServer::HandlePropose(net::NodeId from,
                                                  net::Payload req) {
  auto msg = ProposeMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->epoch < epoch_) co_return Status(StatusCode::kConflict, "stale");
  AdoptEpoch(msg->epoch);

  // Retransmit handling: if we already journaled this zxid (or applied
  // it), just re-ack — the original ACK may have been lost.
  if (msg->zxid <= db_->last_applied() ||
      pending_txns_.count(msg->zxid) > 0) {
    endpoint_.Notify(from, method::kAckProposal, EncodeZxid(msg->zxid));
    co_return net::Payload{};
  }
  const std::size_t bytes = req.size();
  const obs::TraceId trace = msg->txn.trace;
  pending_txns_.emplace(msg->zxid, std::move(msg->txn));
  co_await endpoint_.node().Compute(config_.perf.follower_txn_cpu);
  co_await JournalAppend(msg->zxid, bytes, trace);
  endpoint_.Notify(from, method::kAckProposal, EncodeZxid(msg->zxid));
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleAck(net::NodeId from,
                                              net::Payload req) {
  auto zxid = DecodeZxid(req);
  if (!zxid.ok()) co_return zxid.status();
  auto it = proposals_.find(*zxid);
  if (it != proposals_.end()) {
    it->second.acks.insert(from);
    TryCommitInOrder();
  }
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleBatchPropose(net::NodeId from,
                                                       net::Payload req) {
  auto msg = BatchProposeMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->entries.empty()) co_return net::Payload{};
  if (msg->epoch < epoch_) co_return Status(StatusCode::kConflict, "stale");
  AdoptEpoch(msg->epoch);

  const Zxid lo = msg->entries.front().first;
  const Zxid hi = msg->entries.back().first;
  const obs::TraceId trace = msg->entries.front().second.trace;
  std::size_t fresh = 0;
  for (auto& [zxid, txn] : msg->entries) {
    // Retransmit handling: anything already journaled or applied is just
    // re-acked by the range ACK below.
    if (zxid <= db_->last_applied() || pending_txns_.count(zxid) > 0) {
      continue;
    }
    pending_txns_.emplace(zxid, std::move(txn));
    ++fresh;
  }
  if (fresh > 0) {
    co_await endpoint_.node().Compute(
        config_.perf.follower_txn_cpu * static_cast<sim::Duration>(fresh));
    // One journal entry for the run: a single group-commit fsync covers
    // the whole batch.
    co_await JournalAppend(hi, req.size(), trace);
  }
  // Cumulative ACK: every zxid in [lo, hi] is durable here. The range is
  // exact (never beyond what this message carried), so a lost earlier
  // batch can not be acked by accident.
  endpoint_.Notify(from, method::kBatchAck, EncodeZxidRange(lo, hi));
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleBatchAck(net::NodeId from,
                                                   net::Payload req) {
  wire::BufferReader r(req);
  auto lo = r.ReadI64();
  if (!lo.ok()) co_return lo.status();
  auto hi = r.ReadI64();
  if (!hi.ok()) co_return hi.status();
  bool any = false;
  for (auto it = proposals_.lower_bound(*lo);
       it != proposals_.end() && it->first <= *hi; ++it) {
    it->second.acks.insert(from);
    any = true;
  }
  if (any) TryCommitInOrder();
  co_return net::Payload{};
}

void ZkServer::TryCommitInOrder() {
  // Commit strictly in zxid order: the head proposal must reach quorum
  // before anything behind it commits.
  bool committed_any = false;
  while (!proposals_.empty()) {
    auto it = proposals_.begin();
    // +1: the leader's own durability is counted by its self-ack entry, so
    // quorum() includes it naturally.
    if (it->second.acks.size() < quorum()) break;
    const Zxid zxid = it->first;
    if (recording() && it->second.proposed_at > 0) {
      // PROPOSE -> quorum of ACKs, on the leader's track.
      std::vector<obs::Tracer::Arg> args;
      if (tracing()) {
        args = {{"zxid", {}, static_cast<std::int64_t>(zxid), false},
                {"acks", {},
                 static_cast<std::int64_t>(it->second.acks.size()), false}};
      }
      obs_.tracer->Complete(obs_.track, "quorum-round", "zab",
                            it->second.proposed_at,
                            endpoint_.sim().now() - it->second.proposed_at,
                            it->second.txn.trace, std::move(args));
    }
    proposals_.erase(it);
    last_committed_ = zxid;
    ++writes_committed_;
    committed_any = true;
    if (!config_.group_commit) BroadcastCommit(zxid);
    committed_not_applied_.insert(zxid);
    ApplyCommitted();
  }
  // Group commit: one COMMIT watermark for the whole quorumed run (the
  // receiver treats it cumulatively).
  if (config_.group_commit && committed_any) BroadcastCommit(last_committed_);
}

void ZkServer::BroadcastCommit(Zxid zxid) {
  const auto payload = EncodeZxid(zxid);
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kCommit, payload);
  }
}

sim::Task<net::RpcResult> ZkServer::HandleCommit(net::NodeId /*from*/,
                                                 net::Payload req) {
  auto zxid = DecodeZxid(req);
  if (!zxid.ok()) co_return zxid.status();
  if (*zxid > last_committed_) last_committed_ = *zxid;
  // Cumulative: the leader commits in zxid order, so a COMMIT for z means
  // every pending proposal <= z is committed too (this is what lets the
  // group-commit leader send one watermark per batch).
  for (auto it = pending_txns_.begin();
       it != pending_txns_.end() && it->first <= *zxid; ++it) {
    committed_not_applied_.insert(it->first);
  }
  committed_not_applied_.insert(*zxid);
  co_await endpoint_.node().Compute(config_.perf.apply_cpu);
  ApplyCommitted();
  co_return net::Payload{};
}

void ZkServer::ApplyCommitted() {
  while (!committed_not_applied_.empty()) {
    const Zxid zxid = *committed_not_applied_.begin();
    if (zxid <= db_->last_applied()) {
      committed_not_applied_.erase(committed_not_applied_.begin());
      continue;  // already covered by a snapshot sync
    }
    auto it = pending_txns_.find(zxid);
    if (it == pending_txns_.end()) break;  // proposal not yet received
    AppliedTxn applied = ApplyTxn(it->second, zxid);
    // Every replica retains the committed tail: any of them may be elected
    // leader later and must be able to sync lagging followers.
    committed_log_.Append(zxid, it->second);
    if (result_wanted_.count(zxid) > 0) {
      ClientResponse resp;
      resp.result = std::move(applied.result);
      resp.multi_results = std::move(applied.multi_results);
      local_results_[zxid] = std::move(resp);
      result_wanted_.erase(zxid);
    }
    pending_txns_.erase(it);
    committed_not_applied_.erase(committed_not_applied_.begin());
  }
  CompleteApplyWaiters();
}

sim::Task<bool> ZkServer::WaitApplied(Zxid zxid) {
  if (db_->last_applied() >= zxid) co_return true;
  auto [future, promise] = sim::MakeFuture<bool>(endpoint_.sim());
  apply_waiters_[zxid].push_back(promise);
  // Give-up timer: a leader change can abandon the proposal; never strand
  // the waiter (the client will see kUnavailable and retry).
  endpoint_.sim().ScheduleFn(sim::Sec(3), [promise]() mutable {
    promise.Set(false);
  });
  co_return co_await std::move(future);
}

void ZkServer::CompleteApplyWaiters() {
  const Zxid applied = db_->last_applied();
  while (!apply_waiters_.empty() && apply_waiters_.begin()->first <= applied) {
    for (auto& promise : apply_waiters_.begin()->second) promise.Set(true);
    apply_waiters_.erase(apply_waiters_.begin());
  }
}

// ------------------------------------------------------------- journal ----

sim::Task<void> ZkServer::JournalAppend(Zxid zxid, std::size_t bytes,
                                        obs::TraceId trace) {
  auto [future, promise] = sim::MakeFuture<bool>(endpoint_.sim());
  ++journal_pending_;
  g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  journal_mb_->Send(JournalEntry{zxid, bytes, trace, promise});
  co_await std::move(future);
}

sim::Task<void> ZkServer::JournalLoop() {
  for (;;) {
    auto first = co_await journal_mb_->Recv();
    if (!first.has_value()) co_return;
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    prof::ProfScope fsync_scope("fsync-batch", prof::FrameKind::kComponent);
    std::vector<JournalEntry> batch;
    batch.push_back(std::move(*first));
    while (journal_mb_->size() > 0 &&
           batch.size() < config_.perf.max_journal_batch) {
      auto more = co_await journal_mb_->Recv();
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    std::size_t total = 0;
    for (const auto& e : batch) total += e.bytes;
    h_fsync_batch_.Record(static_cast<std::int64_t>(batch.size()));
    const sim::SimTime fsync_start = endpoint_.sim().now();
    co_await endpoint_.node().DiskWrite(total);  // one group-commit fsync
    const sim::SimTime fsync_end = endpoint_.sim().now();
    if (recording()) {
      // One span per batched entry — same interval, each entry's own trace
      // id — so the decomposition charges the shared fsync to every op it
      // made durable, not just the first in the batch.
      for (const auto& e : batch) {
        std::vector<obs::Tracer::Arg> args;
        if (tracing()) {
          args = {{"batch", {}, static_cast<std::int64_t>(batch.size()),
                   false},
                  {"bytes", {}, static_cast<std::int64_t>(total), false}};
        }
        obs_.tracer->Complete(obs_.track, "fsync-batch", "journal",
                              fsync_start, fsync_end - fsync_start, e.trace,
                              std::move(args));
      }
    }
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordFsync(obs_.track, fsync_end - fsync_start,
                                  static_cast<std::int64_t>(batch.size()));
    }
    for (auto& e : batch) {
      if (journal_pending_ > 0) --journal_pending_;
      e.done.Set(true);
    }
    g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  }
}

// ------------------------------------------- failure detection & votes ----

sim::Task<void> ZkServer::LeaderPingLoop(std::int64_t epoch_at_start) {
  while (role_ == Role::kLeading && epoch_ == epoch_at_start) {
    VoteMsg ping{election_round_, epoch_, last_committed_, my_index_,
                 my_index_};
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kPing, ping.Encode());
    }
    co_await endpoint_.sim().Delay(config_.ping_interval);
  }
}

sim::Task<net::RpcResult> ZkServer::HandlePing(net::NodeId /*from*/,
                                               net::Payload req) {
  auto msg = VoteMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->epoch < epoch_) co_return net::Payload{};  // stale leader
  if (role_ == Role::kLeading) {
    if (msg->epoch > epoch_ ||
        (msg->epoch == epoch_ && msg->candidate != my_index_)) {
      // A newer leader exists (we were partitioned away and deposed):
      // step down and fall through to follow it.
      DUFS_LOG(Info) << "server " << my_index_ << " deposed by epoch "
                     << msg->epoch;
      role_ = Role::kFollowing;
    } else {
      co_return net::Payload{};
    }
  }
  const bool new_leader = leader_index_ != msg->candidate;
  const bool was_looking = role_ == Role::kLooking;
  AdoptEpoch(msg->epoch);
  leader_index_ = msg->candidate;
  last_ping_ = endpoint_.sim().now();
  role_ = Role::kFollowing;
  // Catch up whenever behind (covers sync attempts that failed during a
  // partition): the ping carries the leader's last committed zxid.
  const bool behind = msg->zxid > db_->last_applied();
  if ((was_looking || new_leader || behind) && !syncing_) {
    syncing_ = true;
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(SyncWithLeader(leader_index_));
  }
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleSessionPing(net::NodeId /*from*/,
                                                      net::Payload req) {
  wire::BufferReader r(req);
  auto session = r.ReadU64();
  if (!session.ok()) co_return session.status();
  session_activity_[*session] = endpoint_.sim().now();
  co_return net::Payload{};
}

// Expires silent sessions attached to this server with a replicated
// CloseSession (which deletes the session's ephemerals on every replica).
sim::Task<void> ZkServer::SessionExpiryLoop() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  for (;;) {
    co_await endpoint_.sim().Delay(config_.session_timeout / 2);
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (!endpoint_.node().up()) continue;
    const sim::SimTime now = endpoint_.sim().now();
    std::vector<SessionId> expired;
    for (const auto& [session, last] : session_activity_) {
      if (now - last > config_.session_timeout &&
          db_->SessionExists(session)) {
        expired.push_back(session);
      }
    }
    // `expired` was filled in session_activity_'s hash order; sort so the
    // CloseSession txn sequence is identical across stdlibs.
    std::sort(expired.begin(), expired.end());
    for (SessionId session : expired) {
      session_activity_.erase(session);
      Txn txn;
      txn.session = session;
      txn.op.type = OpType::kCloseSession;
      DUFS_LOG(Info) << "expiring session " << session;
      (void)co_await SubmitWrite(std::move(txn));
    }
  }
}

sim::Task<void> ZkServer::FollowerWatchdog() {
  const std::uint64_t incarnation = endpoint_.node().incarnation();
  for (;;) {
    co_await endpoint_.sim().Delay(config_.election_timeout / 2);
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (!endpoint_.node().up()) continue;
    if (role_ == Role::kLeading) continue;
    if (role_ == Role::kFollowing &&
        endpoint_.sim().now() - last_ping_ <= config_.election_timeout) {
      continue;
    }
    if (role_ == Role::kFollowing) StartElection();
    // kLooking: keep re-broadcasting votes until the ensemble converges.
    if (role_ == Role::kLooking) {
      ++election_round_;
      votes_received_.clear();
      my_vote_ = Vote{db_->last_applied(), my_index_};
      VoteMsg msg{election_round_, epoch_, my_vote_.zxid, my_vote_.candidate,
                  my_index_};
      for (std::size_t i = 0; i < config_.servers.size(); ++i) {
        if (i == my_index_) continue;
        endpoint_.Notify(server_node(i), method::kElectionVote, msg.Encode());
      }
      MaybeDecideElection();
    }
  }
}

void ZkServer::StartElection() {
  role_ = Role::kLooking;
  ++election_round_;
  votes_received_.clear();
  my_vote_ = Vote{db_->last_applied(), my_index_};
  VoteMsg msg{election_round_, epoch_, my_vote_.zxid, my_vote_.candidate,
              my_index_};
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (i == my_index_) continue;
    endpoint_.Notify(server_node(i), method::kElectionVote, msg.Encode());
  }
  MaybeDecideElection();
}

sim::Task<net::RpcResult> ZkServer::HandleElectionVote(net::NodeId from,
                                                       net::Payload req) {
  auto msg = VoteMsg::Decode(req);
  if (!msg.ok()) co_return msg.status();
  highest_voter_epoch_ = std::max(highest_voter_epoch_, msg->epoch);

  if (role_ != Role::kLooking) {
    // Tell the looking peer who leads now.
    VoteMsg reply{msg->round, epoch_, db_->last_applied(), leader_index_,
                  my_index_};
    endpoint_.Notify(from, method::kElectionVote, reply.Encode());
    co_return net::Payload{};
  }

  Vote vote{msg->zxid, msg->candidate};
  votes_received_[static_cast<std::size_t>(msg->from)] = vote;
  if (vote > my_vote_) {
    my_vote_ = vote;
    VoteMsg rebroadcast{election_round_, epoch_, my_vote_.zxid,
                        my_vote_.candidate, my_index_};
    for (std::size_t i = 0; i < config_.servers.size(); ++i) {
      if (i == my_index_) continue;
      endpoint_.Notify(server_node(i), method::kElectionVote,
                       rebroadcast.Encode());
    }
  }
  MaybeDecideElection();
  co_return net::Payload{};
}

void ZkServer::MaybeDecideElection() {
  if (role_ != Role::kLooking) return;
  std::map<std::size_t, std::size_t> tally;
  ++tally[my_vote_.candidate];
  for (const auto& [from, vote] : votes_received_) ++tally[vote.candidate];
  for (const auto& [candidate, count] : tally) {
    if (count < quorum()) continue;
    if (candidate == my_index_) {
      sim::CurrentSimulationScope scope(&endpoint_.sim());
      endpoint_.sim().Spawn(BecomeLeader());
    } else {
      role_ = Role::kFollowing;
      leader_index_ = candidate;
      last_ping_ = endpoint_.sim().now();
      sim::CurrentSimulationScope scope(&endpoint_.sim());
      endpoint_.sim().Spawn(SyncWithLeader(candidate));
    }
    return;
  }
}

sim::Task<void> ZkServer::BecomeLeader() {
  role_ = Role::kLeading;
  leader_index_ = my_index_;
  // Above every epoch this replica and its electors have held: a replica
  // may have journaled proposals of any of them, and a reused zxid would
  // commit the new txn on some replicas and the journaled one on others.
  AdoptEpoch(std::max({epoch_, highest_voter_epoch_,
                       db_->last_applied() >> 40}) +
             1);
  zxid_counter_ = 0;
  DUFS_LOG(Info) << "server " << my_index_ << " leading epoch " << epoch_;
  if (obs_.incidents != nullptr) {
    obs_.incidents->RecordLeaderChange(obs_.track, epoch_);
  }
  if (config_.enable_failure_detection) {
    sim::CurrentSimulationScope scope(&endpoint_.sim());
    endpoint_.sim().Spawn(LeaderPingLoop(epoch_));
  }
  co_return;
}

// Moves this replica to `epoch` if it is newer. Proposals of older epochs
// are abandoned (their clients time out and retry): a new leader never
// commits them, and whatever was committed before its epoch reaches this
// replica by DIFF or SNAP. So a replica drops its own and those it journaled
// but has not seen committed; a kept one would be applied here alone by the
// new epoch's first cumulative COMMIT.
void ZkServer::AdoptEpoch(std::int64_t epoch) {
  if (epoch <= epoch_) return;
  epoch_ = epoch;
  proposals_.clear();
  propose_queue_.clear();
  std::erase_if(pending_txns_, [this](const auto& entry) {
    return (entry.first >> 40) < epoch_ &&
           committed_not_applied_.count(entry.first) == 0;
  });
}

sim::Task<void> ZkServer::SyncWithLeader(std::size_t leader_idx) {
  struct ClearFlag {
    ZkServer* self;
    ~ClearFlag() { self->syncing_ = false; }
  } clear{this};
  syncing_ = true;
  auto result = co_await endpoint_.Call(
      server_node(leader_idx), method::kFollowerInfo,
      EncodeZxid(db_->last_applied()), /*timeout=*/sim::Sec(1));
  if (!result.ok()) co_return;  // the watchdog retries
  wire::BufferReader r(*result);
  auto epoch = r.ReadI64();
  if (!epoch.ok()) co_return;
  auto is_snapshot = r.ReadBool();
  if (!is_snapshot.ok()) co_return;
  if (*is_snapshot) {
    auto blob = r.ReadBytes();
    if (!blob.ok()) co_return;
    co_await endpoint_.node().DiskWrite(blob->size());
    auto db = Database::Restore(*blob);
    if (!db.ok()) co_return;
    db_ = std::move(*db);
    // The old log tail no longer joins up with the installed state: a diff
    // served from it would skip everything the snapshot carried.
    committed_log_.Reset(db_->last_applied());
    AdoptEpoch(*epoch);
    last_committed_ = std::max(last_committed_, db_->last_applied());
    ++snapshot_syncs_;
    CompleteApplyWaiters();
    co_return;
  }
  auto count = r.ReadVarint();
  if (!count.ok()) co_return;
  if (*count > 0) co_await endpoint_.node().DiskWrite(result->size());
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto zxid = r.ReadI64();
    if (!zxid.ok()) co_return;
    auto txn = Txn::Decode(r);
    if (!txn.ok()) co_return;
    if (*zxid <= db_->last_applied()) continue;
    ApplyTxn(*txn, *zxid);
    committed_log_.Append(*zxid, *txn);
  }
  AdoptEpoch(*epoch);
  if (db_->last_applied() > last_committed_) {
    last_committed_ = db_->last_applied();
  }
  ++diff_syncs_;
  CompleteApplyWaiters();
}

sim::Task<net::RpcResult> ZkServer::HandleFollowerInfo(net::NodeId /*from*/,
                                                       net::Payload req) {
  auto since = DecodeZxid(req);
  if (!since.ok()) co_return since.status();
  if (role_ != Role::kLeading) {
    co_return Status(StatusCode::kUnavailable, "not the leader");
  }
  wire::BufferWriter w;
  w.WriteI64(epoch_);
  // If the follower predates the retained log tail, ship a full snapshot
  // instead of a diff.
  const bool need_snapshot = committed_log_.NeedsSnapshot(*since);
  w.WriteBool(need_snapshot);
  if (need_snapshot) {
    w.WriteBytes(db_->Snapshot());
  } else {
    committed_log_.WriteDiff(*since, w);
  }
  co_return w.Take();
}

}  // namespace dufs::zk
