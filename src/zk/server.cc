#include "zk/server.h"

#include <algorithm>
#include <utility>

namespace dufs::zk {
namespace {

// Election and ping messages; the replication ones are in proto.h.

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

void CommittedLog::Append(Zxid zxid, std::span<const std::uint8_t> txn) {
  bytes_.Append(txn.data(), txn.size());
  const Entry entry{zxid, begin_ + bytes_.size()};
  entries_.Append(&entry, 1);
  if (entries_.size() > max_entries_) {
    // Older followers resync via snapshot.
    const Entry& oldest = entries_[0];
    truncated_upto_ = oldest.zxid;
    bytes_.PopFront(oldest.end - begin_);
    begin_ = oldest.end;
    entries_.PopFront(1);
  }
}

void CommittedLog::Reset(Zxid upto) {
  begin_ += bytes_.size();
  bytes_.PopFront(bytes_.size());
  entries_.PopFront(entries_.size());
  truncated_upto_ = upto;
}

void CommittedLog::WriteDiff(Zxid since, wire::BufferWriter& w) const {
  // Zxids only grow along the log, so the entries after `since` are a suffix.
  std::size_t first = 0;
  for (std::size_t n = entries_.size(); n > 0;) {
    const std::size_t half = n / 2;
    if (entries_[first + half].zxid <= since) {
      first += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  w.WriteVarint(static_cast<std::uint64_t>(entries_.size() - first));
  std::uint64_t begin = first == 0 ? begin_ : entries_[first - 1].end;
  for (std::size_t i = first; i < entries_.size(); ++i) {
    w.WriteI64(entries_[i].zxid);
    bytes_.ForEachRun(begin - begin_, entries_[i].end - begin_,
                      [&w](const std::uint8_t* run, std::size_t n) {
                        w.WriteRaw(run, run + n);
                      });
    begin = entries_[i].end;
  }
}

// ------------------------------------------------------------- server ----

ZkServer::ZkServer(net::RpcEndpoint& endpoint, ZkEnsembleConfig config,
                   std::size_t my_index)
    : endpoint_(endpoint),
      config_(std::move(config)),
      my_index_(my_index),
      db_(std::make_unique<Database>()),
      committed_log_(config_.max_log_entries),
      apply_waits_(endpoint.sim(), /*expired=*/false),
      read_pipeline_(endpoint.sim(), 1),
      write_pipeline_(endpoint.sim(), 1) {
  DUFS_CHECK(my_index_ < config_.servers.size());
  DUFS_CHECK(config_.servers[my_index_] == endpoint_.self());
  DUFS_CHECK(config_.servers.size() <= 64);  // Proposal::acks is a bitmask
}

std::uint64_t ZkServer::AckBit(net::NodeId node) const {
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    if (config_.servers[i] == node) return std::uint64_t{1} << i;
  }
  return 0;
}

void ZkServer::Start() {
  DUFS_CHECK(!started_);
  started_ = true;
  // The bound closures live in the endpoint's handler map; `this` outlives
  // them, and the inner lambda is not itself a coroutine (it forwards to a
  // member coroutine whose frame holds `this` via the implicit parameter).
  auto bind = [this](auto method_fn) {
    return [this, method_fn](net::NodeId from,
                             net::Payload req) -> sim::Task<net::RpcResult> {
      return (this->*method_fn)(from, std::move(req));
    };
  };
  endpoint_.RegisterHandler(method::kRequest, bind(&ZkServer::HandleRequest));
  endpoint_.RegisterHandler(method::kForward, bind(&ZkServer::HandleForward));
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
  // The view reads the request in place; req_bytes stays in this frame, so
  // its path outlives every co_await below.
  auto req = RequestView::Decode(req_bytes);
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
        static_cast<std::int64_t>(write_pipeline_.queue_length());
    g_write_queue_.Set(write_depth);
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordQueueDepth(obs_.track, write_depth);
    }
    // Server-side work runs on this node's coroutine stack, not the
    // client's: root the profiler attribution at the node frame.
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    obs::Span span(obs_.tracer, obs_.track, "zk-write", "zk", req->trace);
    // Compound writes register watches *here* on the session server after
    // the txn applies (the replicated state machine stays watch-free).
    auto resp = co_await SubmitWrite(req->TxnBytes());
    if (!resp.ok()) co_return UnavailableResponse().Encode();
    if (IsCompound(req->op.type)) {
      co_return ServeCompound(req->op.type, req->op.watch, req->op.path,
                              std::move(*resp), req->session, from);
    }
    co_return std::move(*resp);
  }

  // Local read through the serialized read pipeline.
  c_reads_.Inc();
  const auto read_depth =
      static_cast<std::int64_t>(read_pipeline_.queue_length());
  g_read_queue_.Set(read_depth);
  if (obs_.incidents != nullptr) {
    obs_.incidents->RecordQueueDepth(obs_.track, read_depth);
  }
  prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
  obs::Span span(obs_.tracer, obs_.track, "zk-read", "zk", req->trace);
  co_await read_pipeline_.Serve(config_.perf.read_cpu);
  ++reads_served_;
  if (IsCompound(req->op.type)) {
    co_return ServeCompound(req->op.type, req->op.watch, req->op.path,
                            db_->EncodeCompoundRead(req->op), req->session,
                            from);
  }
  ClientResponse resp;
  resp.result = db_->Read(req->op);
  if (req->op.watch) RegisterWatch(req->op, req->session, from);
  co_return resp.Encode();
}

net::Payload ZkServer::ServeCompound(OpType type, bool watch,
                                     std::string_view path,
                                     net::Payload reply, SessionId session,
                                     net::NodeId client) {
  // Only a watched listing registers a watch per entry; every other reply
  // is read up to its resolved depth, with no node table.
  auto view = watch && type == OpType::kReadDirPlus
                  ? CompoundReply::Decode(std::move(reply))
                  : CompoundReply::DecodeHead(std::move(reply));
  if (!view.ok()) return UnavailableResponse().Encode();
  c_compound_.Inc();
  h_resolve_depth_.Record(static_cast<std::int64_t>(view->resolved_depth()));
  if (watch) RegisterCompoundWatches(type, path, *view, session, client);
  return std::move(*view).TakeBytes();
}

void ZkServer::RegisterWatch(const OpView& op, SessionId session,
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

void ZkServer::RegisterCompoundWatches(OpType type, std::string_view path,
                                       const CompoundReply& reply,
                                       SessionId session,
                                       net::NodeId client) {
  std::vector<std::string_view>& components = watch_components_;
  PathComponents(path, components);
  const WatchTable::Watcher watcher{session, client};
  // Data watch on every component the walk resolved. resolved_depth may
  // exceed prefix().size() by one (the terminal rides stat/data), and for a
  // successful ResolveDelete it is one *less* than the walk reached — the
  // deleted terminal must not be re-watched, or the watch would never fire.
  // Every prefix, and below every child path, is built in one reused buffer.
  std::string& znode_path = watch_path_;
  znode_path.clear();
  const std::size_t watched =
      std::min<std::size_t>(reply.resolved_depth(), components.size());
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
  if (type == OpType::kReadDirPlus && reply.ok()) {
    // The listing seeds one positive cache entry per child: mirror it with
    // a child watch on the directory plus a data watch per entry.
    child_watches_.Add(path, watcher);
    znode_path.assign(path);
    if (path != "/") znode_path.push_back('/');
    const std::size_t dir_len = znode_path.size();
    for (const CompoundReply::Node& entry : reply.entries()) {
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
      // The one place a trigger's path becomes a string: a watch fired.
      WatchEvent ev;
      ev.type = trig.type;
      ev.path = trig.path;
      ev.session = watcher.session;
      endpoint_.Notify(watcher.client, method::kWatchEvent, ev.Encode());
    }
  }
}

AppliedTxn& ZkServer::ApplyTxn(const TxnView& txn, Zxid zxid, bool reply) {
  AppliedTxn& applied = db_->Apply(txn, zxid, endpoint_.sim().now(), reply);
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

sim::Task<Result<net::Payload>> ZkServer::SubmitWrite(net::Payload txn) {
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(txn), zxid);
  co_return resp;
}

sim::Task<Result<net::Payload>> ZkServer::SubmitWriteTracked(
    net::Payload txn, Zxid& zxid) {  // dufs-lint: allow(coro-ref-param)
  if (role_ == Role::kLeading) {
    // The leader's single request-processor thread: serialization +
    // per-follower replication work. This stage is the write-throughput
    // limiter and the reason Fig. 7's write curves fall as servers are
    // added. Group commit pays the per-follower replication work once per
    // wave in the flush task, which queues behind the submitters on this
    // pipeline; otherwise every write pays it here.
    const auto peers = static_cast<sim::Duration>(config_.servers.size() - 1);
    co_await write_pipeline_.Serve(
        config_.perf.write_cpu +
        (config_.group_commit ? 0 : peers * config_.perf.per_peer_cpu));
    // The zxid is assigned at the departure, and departures follow arrival
    // order, so zxids do too; the leader's clock stamps replica-identical
    // ctime/mtime.
    zxid = MakeZxid();
    StampTxnTime(txn, endpoint_.sim().now());
    propose_queue_.push_back({zxid, std::move(txn)});
    if (config_.group_commit) {
      ScheduleProposalFlush();
    } else {
      // A batch of one. A leader deposed while it paid for the write drops
      // it; the client times out and retries against the new leader.
      if (role_ == Role::kLeading) {
        ProposeBatch(propose_queue_, endpoint_.sim().now());
      }
      propose_queue_.clear();
    }
    local_results_.insert({zxid, false, {}});
    const bool applied = co_await WaitApplied(zxid);
    auto it = local_results_.find(zxid);
    if (!applied) {
      if (it != local_results_.end()) local_results_.erase(it);
      co_return Status(StatusCode::kUnavailable, "commit timed out");
    }
    if (it == local_results_.end() || !it->applied) {
      co_return Status(StatusCode::kInternal, "missing local result");
    }
    net::Payload reply = std::move(it->reply);
    local_results_.erase(it);
    co_return reply;
  }

  // Follower: forward the txn bytes as they are to the leader, then wait
  // until the local replica has applied the txn so this session observes
  // its own write.
  auto result = co_await endpoint_.Call(server_node(leader_index_),
                                        method::kForward, std::move(txn),
                                        /*timeout=*/sim::Sec(2));
  if (!result.ok()) co_return result.status();
  auto fwd_zxid = ForwardReply::TakeReply(*result);
  if (!fwd_zxid.ok()) co_return fwd_zxid.status();
  zxid = *fwd_zxid;
  (void)co_await WaitApplied(zxid);
  co_return std::move(*result);
}

sim::Task<net::RpcResult> ZkServer::HandleForward(net::NodeId /*from*/,
                                                  net::Payload req) {
  auto txn = TxnView::Decode(req);
  if (!txn.ok()) co_return txn.status();
  if (role_ != Role::kLeading) {
    // Stale leadership information at the forwarder; let it time out and
    // retry after discovering the new leader.
    co_return Status(StatusCode::kUnavailable, "not the leader");
  }
  Zxid zxid = 0;
  auto resp = co_await SubmitWriteTracked(std::move(req), zxid);
  if (!resp.ok()) co_return resp.status();
  co_return ForwardReply::Encode(zxid, *resp);
}

void ZkServer::ProposeBatch(std::span<BatchEntry> batch,
                            sim::SimTime proposed_at) {
  DUFS_CHECK(role_ == Role::kLeading && !batch.empty());
  Broadcast(method::kBatchPropose, EncodeBatchPropose(epoch_, batch));

  const Zxid lo = batch.front().zxid;
  const Zxid hi = batch.back().zxid;
  std::size_t bytes = 0;
  obs::TraceId trace = 0;  // the run's journal entry carries the first's
  for (BatchEntry& entry : batch) {
    auto view = TxnView::Decode(entry.txn);
    DUFS_CHECK(view.ok());  // the session server or HandleForward read it
    if (entry.zxid == lo) trace = view->trace;
    bytes += entry.txn.size();
    proposals_.insert(Proposal{entry.zxid, view->trace, 0, proposed_at});
    pending_txns_.insert({entry.zxid, std::move(entry.txn), nullptr, *view});
  }
  MaybeScheduleRetransmit();

  // Self-ack the whole run after one local journal write.
  sim::CurrentSimulationScope scope(&endpoint_.sim());
  endpoint_.sim().Spawn(
      [](ZkServer& self, Zxid lo_z, Zxid hi_z, std::size_t size,
         obs::TraceId tr) -> sim::Task<void> {
        co_await self.JournalAppend(hi_z, size, tr);
        self.AckRange(lo_z, hi_z, std::uint64_t{1} << self.my_index_);
      }(*this, lo, hi, bytes, trace));
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
    // Per-follower replication bookkeeping, amortized over the wave. It is
    // committed at the join: a restart or deposition that empties the queue
    // meanwhile is seen after the departure, and submitters that join after
    // the flush start after it.
    const auto peers = static_cast<sim::Duration>(config_.servers.size() - 1);
    const sim::Duration service = peers * config_.perf.per_peer_cpu;
    const sim::SimTime wave_start = write_pipeline_.Join(service);
    co_await endpoint_.sim().Delay(wave_start + service -
                                   endpoint_.sim().now());
    if (endpoint_.node().incarnation() != incarnation) co_return;
    if (role_ != Role::kLeading || propose_queue_.empty()) continue;
    const std::size_t n =
        std::min(propose_queue_.size(), config_.perf.max_journal_batch);
    ++batch_rounds_;
    proposals_batched_ += n;
    const std::span<BatchEntry> wave(propose_queue_.data(), n);
    if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
      // One span per quorum wave, attributed to the first txn's trace.
      auto front = TxnView::Decode(wave.front().txn);
      DUFS_CHECK(front.ok());
      obs_.tracer->Complete(
          obs_.track, "group-commit-flush", "zab", wave_start,
          endpoint_.sim().now() - wave_start, front->trace,
          {{"batch", static_cast<std::int64_t>(n)},
           {"zxid_lo", static_cast<std::int64_t>(wave.front().zxid)},
           {"zxid_hi", static_cast<std::int64_t>(wave.back().zxid)}});
    }
    ProposeBatch(wave, wave_start);
    propose_queue_.erase(propose_queue_.begin(),
                         propose_queue_.begin() +
                             static_cast<std::ptrdiff_t>(n));
  }
  flush_scheduled_ = false;
  // A submitter may have enqueued between the last drain and the flag
  // reset; make sure nothing is stranded.
  if (!propose_queue_.empty()) ScheduleProposalFlush();
}

// Lost PROPOSE/ACK messages (partitions, crashes) must not wedge the commit
// pipeline: once the oldest open proposal is one period old, re-send the
// open proposals at least that old (at most 16) as one BATCH PROPOSE to every
// follower that has not ACKed all of them. A proposal younger than that is
// still in flight and is not re-sent. The timer chain self-terminates when
// the queue empties, so idle ensembles still drain the event loop.
void ZkServer::MaybeScheduleRetransmit(sim::Duration min_delay) {
  if (retransmit_scheduled_ || proposals_.empty()) return;
  retransmit_scheduled_ = true;
  const sim::SimTime now = endpoint_.sim().now();
  const sim::Duration delay = std::max(
      proposals_.front().proposed_at + kRetransmitPeriod - now, min_delay);
  endpoint_.sim().ScheduleFn(delay, [this] {
    retransmit_scheduled_ = false;
    if (role_ != Role::kLeading || !endpoint_.node().up()) return;
    const sim::SimTime now = endpoint_.sim().now();
    // Proposals are zxid-ordered and proposed in that order, so the old
    // ones are a head [lo, hi] and the range ACK stays exact.
    std::vector<BatchEntry> head;
    std::uint64_t acked_all = ~std::uint64_t{0};
    for (const Proposal& proposal : proposals_) {
      if (now - proposal.proposed_at < kRetransmitPeriod) break;
      // A proposal's txn stays in pending_txns_ until it is applied, which
      // is after the proposal itself is gone.
      const auto txn = pending_txns_.find(proposal.zxid);
      DUFS_CHECK(txn != pending_txns_.end());
      head.push_back({proposal.zxid, {txn->txn.bytes.begin(),
                                      txn->txn.bytes.end()}});
      acked_all &= proposal.acks;
      if (head.size() >= 16) break;
    }
    if (head.empty()) {
      MaybeScheduleRetransmit();
      return;
    }
    Broadcast(method::kBatchPropose, EncodeBatchPropose(epoch_, head),
              acked_all);
    MaybeScheduleRetransmit(kRetransmitPeriod);
  });
}

sim::Task<net::RpcResult> ZkServer::HandleBatchPropose(net::NodeId from,
                                                       net::Payload req) {
  auto msg = BatchProposeView::Decode(req);
  if (!msg.ok()) co_return msg.status();
  if (msg->size() == 0) co_return net::Payload{};
  if (msg->epoch() < epoch_) {
    co_return Status(StatusCode::kConflict, "stale");
  }
  AdoptEpoch(msg->epoch());

  const Zxid lo = msg->lo();
  const Zxid hi = msg->hi();
  const obs::TraceId trace = msg->front_trace();
  const std::size_t bytes = req.size();
  // A batch of one's payload becomes its pending txn; a larger batch's txns
  // share theirs. Moving the payload keeps its buffer, so the views stay
  // valid.
  std::shared_ptr<const net::Payload> shared;
  if (msg->size() > 1) {
    shared = std::make_shared<const net::Payload>(std::move(req));
  }
  std::size_t fresh = 0;
  msg->ForEach([&](Zxid zxid, const TxnView& txn) {
    // Retransmit handling: anything already journaled or applied is just
    // re-acked by the range ACK below.
    if (zxid <= db_->last_applied() || pending_txns_.contains(zxid)) {
      ++redelivered_txns_;
      return;
    }
    pending_txns_.insert(
        {zxid, shared ? net::Payload{} : std::move(req), shared, txn});
    ++fresh;
  });
  if (fresh > 0) {
    co_await endpoint_.node().Compute(
        config_.perf.follower_txn_cpu * static_cast<sim::Duration>(fresh));
    // One journal entry for the run: a single group-commit fsync covers
    // the whole batch.
    co_await JournalAppend(hi, bytes, trace);
  }
  // Cumulative ACK: every zxid in [lo, hi] is durable here. The range is
  // exact (never beyond what this message carried), so a lost earlier
  // batch can not be acked by accident.
  endpoint_.Notify(from, method::kBatchAck, EncodeZxidRange(lo, hi));
  co_return net::Payload{};
}

sim::Task<net::RpcResult> ZkServer::HandleBatchAck(net::NodeId from,
                                                   net::Payload req) {
  auto range = DecodeZxidRange(req);
  if (!range.ok()) co_return range.status();
  AckRange(range->first, range->second, AckBit(from));
  co_return net::Payload{};
}

void ZkServer::AckRange(Zxid lo, Zxid hi, std::uint64_t bit) {
  bool any = false;
  for (auto it = proposals_.lower_bound(lo);
       it != proposals_.end() && it->zxid <= hi; ++it) {
    it->acks |= bit;
    any = true;
  }
  if (any) TryCommitInOrder();
}

void ZkServer::TryCommitInOrder() {
  // Commit strictly in zxid order: the head proposal must reach quorum
  // before anything behind it commits.
  bool committed_any = false;
  while (!proposals_.empty()) {
    const Proposal& head = proposals_.front();
    // +1: the leader's own durability is counted by its self-ack entry, so
    // quorum() includes it naturally.
    if (head.ack_count() < quorum()) break;
    const Zxid zxid = head.zxid;
    if (obs_.tracer != nullptr && obs_.tracer->enabled() &&
        head.proposed_at > 0) {
      // PROPOSE -> quorum of ACKs, on the leader's track.
      obs_.tracer->Complete(
          obs_.track, "quorum-round", "zab", head.proposed_at,
          endpoint_.sim().now() - head.proposed_at, head.trace,
          {{"zxid", static_cast<std::int64_t>(zxid)},
           {"acks", static_cast<std::int64_t>(head.ack_count())}});
    }
    proposals_.pop_front();
    last_committed_ = zxid;
    ++writes_committed_;
    committed_any = true;
    committed_not_applied_.insert({zxid});
    ApplyCommitted();
  }
  if (!committed_any) return;
  // One COMMIT watermark for everything that reached quorum (the receiver
  // treats it cumulatively).
  Broadcast(method::kCommit, EncodeZxid(last_committed_));
}

void ZkServer::Broadcast(std::uint16_t method, net::Payload payload,
                         std::uint64_t skip) {
  skip |= std::uint64_t{1} << my_index_;
  // One past the last recipient, who gets the payload itself; the others
  // get a copy each.
  std::size_t end = config_.servers.size();
  while (end > 0 && ((skip >> (end - 1)) & 1) != 0) --end;
  for (std::size_t i = 0; i < end; ++i) {
    if (((skip >> i) & 1) != 0) continue;
    endpoint_.Notify(server_node(i), method,
                     i + 1 == end ? std::move(payload) : payload);
  }
}

sim::Task<net::RpcResult> ZkServer::HandleCommit(net::NodeId /*from*/,
                                                 net::Payload req) {
  auto zxid = DecodeZxid(req);
  if (!zxid.ok()) co_return zxid.status();
  if (*zxid > last_committed_) last_committed_ = *zxid;
  // Cumulative: the leader commits in zxid order, so a COMMIT for z means
  // every pending proposal <= z is committed too (this is what lets the
  // leader send one watermark for every proposal that reached quorum).
  for (auto it = pending_txns_.begin();
       it != pending_txns_.end() && it->zxid <= *zxid; ++it) {
    committed_not_applied_.insert({it->zxid});
  }
  committed_not_applied_.insert({*zxid});
  co_await endpoint_.node().Compute(config_.perf.apply_cpu);
  ApplyCommitted();
  co_return net::Payload{};
}

void ZkServer::ApplyCommitted() {
  while (!committed_not_applied_.empty()) {
    const Zxid zxid = committed_not_applied_.front().zxid;
    const Zxid last = db_->last_applied();
    if (zxid <= last) {
      // Already covered by a sync.
      if (auto stale = pending_txns_.find(zxid); stale != pending_txns_.end()) {
        pending_txns_.erase(stale);
      }
      committed_not_applied_.pop_front();
      continue;
    }
    if (role_ == Role::kFollowing && (zxid >> 40) == (last >> 40) &&
        zxid != last + 1) {
      // A leader numbers an epoch's writes without gaps, so a committed
      // zxid past last + 1 means this replica missed a committed write it
      // will never be re-sent (a PROPOSE and COMMIT lost while the others
      // ACKed). Applying over the hole would skip it for good: catch up from
      // the leader's log instead, which ends by applying what is queued.
      if (!syncing_) {
        syncing_ = true;
        sim::CurrentSimulationScope scope(&endpoint_.sim());
        endpoint_.sim().Spawn(SyncWithLeader(leader_index_));
      }
      break;
    }
    auto it = pending_txns_.find(zxid);
    if (it == pending_txns_.end()) break;  // proposal not yet received
    // Only the replica a client waits on builds the reply.
    const auto wanted = local_results_.find(zxid);
    const bool reply = wanted != local_results_.end() && !wanted->applied;
    AppliedTxn& applied = ApplyTxn(it->txn, zxid, reply);
    // Every replica retains the committed tail: any of them may be elected
    // leader later and must be able to sync lagging followers.
    committed_log_.Append(zxid, it->txn.bytes);
    if (reply) {
      // A compound write's reply was encoded by the apply; any other write
      // is encoded once here.
      if (IsCompound(it->txn.op.type)) {
        wanted->reply = std::move(applied.reply);
      } else {
        ClientResponse resp;
        resp.result = std::move(applied.result);
        resp.multi_results = std::move(applied.multi_results);
        wanted->reply = resp.Encode();
      }
      wanted->applied = true;
    }
    pending_txns_.erase(it);
    committed_not_applied_.pop_front();
  }
  CompleteApplyWaiters();
}

sim::Task<bool> ZkServer::WaitApplied(Zxid zxid) {
  if (db_->last_applied() >= zxid) co_return true;
  auto applied = apply_waits_.Add(kApplyGiveUp);
  apply_waiters_.insert_multi({zxid, applied.id()});
  co_return co_await applied;
}

void ZkServer::CompleteApplyWaiters() {
  const Zxid applied = db_->last_applied();
  while (!apply_waiters_.empty() && apply_waiters_.front().zxid <= applied) {
    // False for a waiter that already gave up.
    (void)apply_waits_.Complete(apply_waiters_.front().wait, true);
    apply_waiters_.pop_front();
  }
}

// ------------------------------------------------------------- journal ----

sim::Task<void> ZkServer::JournalAppend(Zxid zxid, std::size_t bytes,
                                        obs::TraceId trace) {
  ++journal_pending_;
  g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  // The entry carries this coroutine itself: JournalLoop resumes it after
  // the fsync, so no completion state is allocated per entry.
  struct Enqueue {
    ZkServer* self;
    JournalEntry entry;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      entry.waiter = sim::CaptureSuspended(h);
      self->journal_mb_->Send(std::move(entry));
    }
    void await_resume() const noexcept {}
  };
  co_await Enqueue{this, JournalEntry(zxid, bytes, trace, {})};
}

sim::Task<void> ZkServer::JournalLoop() {
  for (;;) {
    auto first = co_await journal_mb_->Recv();
    if (!first.has_value()) co_return;
    prof::ProfScope node_scope(obs_.prof_name, prof::FrameKind::kNode);
    prof::ProfScope fsync_scope("fsync-batch", prof::FrameKind::kComponent);
    std::vector<JournalEntry>& batch = journal_batch_;
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
    if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
      // One span per batched entry — same interval, each entry's own trace
      // id — so the decomposition charges the shared fsync to every op it
      // made durable, not just the first in the batch.
      for (const auto& e : batch) {
        obs_.tracer->Complete(
            obs_.track, "fsync-batch", "journal", fsync_start,
            fsync_end - fsync_start, e.trace,
            {{"batch", static_cast<std::int64_t>(batch.size())},
             {"bytes", static_cast<std::int64_t>(total)}});
      }
    }
    if (obs_.incidents != nullptr) {
      obs_.incidents->RecordFsync(obs_.track, fsync_end - fsync_start,
                                  static_cast<std::int64_t>(batch.size()));
    }
    for (auto& e : batch) {
      if (journal_pending_ > 0) --journal_pending_;
      endpoint_.sim().ScheduleHandle(
          0, std::exchange(e.waiter, sim::SuspendedHandle{}));
    }
    batch.clear();
    g_journal_pending_.Set(static_cast<std::int64_t>(journal_pending_));
  }
}

// ------------------------------------------- failure detection & votes ----

sim::Task<void> ZkServer::LeaderPingLoop(std::int64_t epoch_at_start) {
  while (role_ == Role::kLeading && epoch_ == epoch_at_start) {
    VoteMsg ping{election_round_, epoch_, last_committed_, my_index_,
                 my_index_};
    Broadcast(method::kPing, ping.Encode());
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
    // CloseSession txn sequence does not depend on the process's hash salt.
    std::sort(expired.begin(), expired.end());
    for (SessionId session : expired) {
      session_activity_.erase(session);
      Txn txn;
      txn.session = session;
      txn.op.type = OpType::kCloseSession;
      DUFS_LOG(Info) << "expiring session " << session;
      (void)co_await SubmitWrite(txn.Encode());
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
    if (role_ == Role::kLooking) StartElection();
  }
}

void ZkServer::StartElection() {
  role_ = Role::kLooking;
  ++election_round_;
  votes_received_.clear();
  my_vote_ = Vote{db_->last_applied(), my_index_};
  VoteMsg msg{election_round_, epoch_, my_vote_.zxid, my_vote_.candidate,
              my_index_};
  Broadcast(method::kElectionVote, msg.Encode());
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
    Broadcast(method::kElectionVote, rebroadcast.Encode());
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
  pending_txns_.erase_if([this](const PendingTxn& entry) {
    return (entry.zxid >> 40) < epoch_ &&
           !committed_not_applied_.contains(entry.zxid);
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
    ApplyCommitted();
    co_return;
  }
  auto count = r.ReadVarint();
  if (!count.ok()) co_return;
  if (*count > 0) co_await endpoint_.node().DiskWrite(result->size());
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto zxid = r.ReadI64();
    if (!zxid.ok()) co_return;
    auto txn = TxnView::Read(r);
    if (!txn.ok()) co_return;
    if (*zxid <= db_->last_applied()) continue;
    ApplyTxn(*txn, *zxid, /*reply=*/false);  // no client waits on a replay
    committed_log_.Append(*zxid, txn->bytes);
  }
  AdoptEpoch(*epoch);
  if (db_->last_applied() > last_committed_) {
    last_committed_ = db_->last_applied();
  }
  ++diff_syncs_;
  ApplyCommitted();
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
