#include "cluster/node.h"

#include <algorithm>
#include <unordered_set>

#include "core/backoff.h"
#include "core/logging.h"

namespace dbsens {
namespace cluster {

namespace {

/** Logical cores per node (fleet nodes are small boxes). */
constexpr int kCoresPerNode = 8;
/** Coordinator ExecPrepare re-sends to silent branches: capped
 * exponential backoff, then a prepare timeout (presumed abort). */
constexpr SimDuration kPrepareBackoffBase = microseconds(300);
constexpr SimDuration kPrepareBackoffCap = milliseconds(4);
constexpr int kPrepareAttempts = 6;
/** Coordinator decision resends, then the inquiry loop's backoff. */
constexpr SimDuration kDecisionBackoffBase = microseconds(300);
constexpr SimDuration kDecisionBackoffCap = milliseconds(4);
constexpr int kDecisionAttempts = 10;
constexpr SimDuration kInquiryBackoffBase = microseconds(500);
constexpr SimDuration kInquiryBackoffCap = milliseconds(4);

} // namespace

ClusterNode::ClusterNode(int id, const ClusterConfig &cfg,
                         EventLoop &loop, NetModel &net)
    : id_(id), cfg_(cfg), loop_(loop), net_(net)
{
}

ClusterNode::~ClusterNode() = default;

std::unique_ptr<Database>
ClusterNode::makeShardDb(const ClusterConfig &cfg, int node)
{
    auto db = std::make_unique<Database>("shard" + std::to_string(node));
    TableDef def;
    def.name = "acct";
    def.schema = Schema({{"a_id", TypeId::Int64},
                         {"bal", TypeId::Int64},
                         {"pad", TypeId::String, 24}});
    def.expectedRows = uint64_t(cfg.rowsPerShard);
    def.indexColumns = {"a_id"};
    auto &t = db->createTable(def);
    Rng rng(deriveNodeFaultSeed(cfg.seed ^ 0xAC57ULL, node));
    const int64_t lo = int64_t(node) * cfg.rowsPerShard;
    for (int64_t k = 0; k < cfg.rowsPerShard; ++k)
        t.data->append({lo + k, kInitialBalance, rng.text(16)});
    db->finishLoad();
    return db;
}

RunConfig
ClusterNode::nodeRunConfig(bool first) const
{
    RunConfig rc;
    rc.cores = kCoresPerNode;
    rc.maxdop = 1;
    rc.seed = deriveNodeFaultSeed(cfg_.seed, id_);
    rc.prewarmBufferPool = first;
    rc.lockTimeout = cfg_.lockTimeout;
    rc.history = const_cast<WalHistory *>(&history_);
    rc.txnIdBase = txnIdBase_;
    rc.walLsnBase = walLsnBase_;
    // The run window spans the fleet horizon; sessions here are the
    // message handlers, gated by up() rather than running().
    const SimTime horizon =
        cfg_.window + cfg_.drain + milliseconds(50);
    rc.duration = horizon > loop_.now() ? horizon - loop_.now()
                                        : milliseconds(1);
    if (cfg_.ssdErrorRate > 0 || cfg_.ssdStallRate > 0) {
        rc.fault.enabled = true;
        rc.fault.seed = deriveNodeFaultSeed(cfg_.seed, id_);
        rc.fault.ssdErrorRate = cfg_.ssdErrorRate;
        rc.fault.ssdStallRate = cfg_.ssdStallRate;
    }
    return rc;
}

void
ClusterNode::startIncarnation(bool first)
{
    domain_ = loop_.newDomain();
    DomainScope scope(loop_, domain_);
    run_ = std::make_unique<SimRun>(*db_, nodeRunConfig(first), loop_);
    run_->wal.attachJournal(&journal_);
}

void
ClusterNode::boot()
{
    db_ = makeShardDb(cfg_, id_);
    startIncarnation(true);
    up_ = true;
}

void
ClusterNode::crash()
{
    if (!up_ || !run_)
        return;
    up_ = false;
    ++stats_.crashes;
    // The durable horizon at the crash instant; it doubles as the LSN
    // base of the next incarnation (one monotonic space per node).
    walLsnBase_ = run_->wal.flushedLsn();
    txnIdBase_ = run_->lastTxnId();
    loop_.killDomain(domain_);
    // Volatile protocol state dies with the incarnation. The journal,
    // history, and database ("disk") survive in the node object.
    branches_.clear();
    resolved_.clear();
    inDoubt_.clear();
    coord_.clear();
    decisionLog_.clear();
    unresolved_ = 0;
    run_->wal.attachJournal(nullptr);
    run_.reset();
}

void
ClusterNode::restart()
{
    if (up_ || !db_)
        return;
    ++stats_.recoveries;
    startIncarnation(false);
    DomainScope scope(loop_, domain_);

    // Rebuild the commit decision log from durable Decision records
    // before replay clears the journal. Presumed abort: an undurable
    // decision never happened.
    for (const WalRecord &r : journal_.records()) {
        if (r.kind != WalRecord::Kind::Decision ||
            r.lsn > walLsnBase_)
            continue;
        std::vector<int> parts;
        for (const Value &v : r.rowImage)
            parts.push_back(int(v.asInt()));
        decisionLog_[r.gtid] = std::move(parts);
    }

    // Reconcile the history with the durable journal before replay
    // clears it: unacked winners get their commit marker, losers the
    // replay is about to undo get an abort marker, in-doubt branches
    // get neither (their marker appends at resolution).
    reconcileCommittedHistory(history_, journal_, walLsnBase_);

    // Rebuild the branch-outcome dedup map from the full history: a
    // duplicate ExecPrepare may arrive for a gtid resolved in an
    // earlier incarnation, and re-executing it would double-apply.
    {
        std::unordered_map<TxnId, uint64_t> txn_gtid;
        for (const WalRecord &r : history_.records()) {
            if (r.kind == WalRecord::Kind::Prepare)
                txn_gtid[r.txn] = r.gtid;
            else if (r.kind == WalRecord::Kind::Commit) {
                auto it = txn_gtid.find(r.txn);
                if (it != txn_gtid.end())
                    resolved_[it->second] = true;
            } else if (r.kind == WalRecord::Kind::Abort) {
                auto it = txn_gtid.find(r.txn);
                if (it != txn_gtid.end())
                    resolved_[it->second] = false;
            }
        }
    }

    std::vector<InDoubtTxn> held;
    const RecoveryStats rec =
        replayWal(*db_, journal_, walLsnBase_, &held);
    stats_.recoveryNs += rec.simNs;

    // Re-harden the in-doubt branches and the decision log into the
    // fresh log (journal only — the history already has them), so a
    // second crash before resolution still recovers them.
    uint64_t bytes = 0;
    for (const InDoubtTxn &d : held) {
        for (const WalRecord &r : d.records) {
            run_->wal.logJournalOnly(r);
            bytes += oltpcost::kLogBytesRowUpdate;
        }
        WalRecord p;
        p.kind = WalRecord::Kind::Prepare;
        p.txn = d.txn;
        p.gtid = d.gtid;
        run_->wal.logJournalOnly(std::move(p));
        bytes += oltpcost::kLogBytesPrepare;
    }
    for (const auto &[gtid, parts] : decisionLog_) {
        WalRecord drec;
        drec.kind = WalRecord::Kind::Decision;
        drec.gtid = gtid;
        for (int n : parts)
            drec.rowImage.push_back(Value(int64_t(n)));
        run_->wal.logJournalOnly(std::move(drec));
        bytes += oltpcost::kLogBytesPrepare;
    }
    if (bytes > 0)
        run_->wal.append(bytes);

    loop_.spawn(recoveryTask(std::move(held), rec.simNs));
}

Task<void>
ClusterNode::recoveryTask(std::vector<InDoubtTxn> held,
                          SimDuration replay_delay)
{
    // The node is dark while the replay pass runs.
    if (replay_delay > 0)
        co_await SimDelay(loop_, replay_delay);
    // Harden the re-logged records before serving.
    if (run_->wal.appendedLsn() > run_->wal.flushedLsn())
        co_await run_->wal.commit(run_->wal.appendedLsn(), nullptr);
    // Re-acquire every in-doubt lock before admitting new work: a new
    // transaction must never slip a write between a held branch and
    // its verdict.
    Database::Table &t = db_->table("acct");
    for (InDoubtTxn &d : held) {
        run_->noteTxnBegin(d.txn);
        std::unordered_set<RowId> rows;
        for (const WalRecord &r : d.records)
            if (rows.insert(r.row).second)
                co_await run_->locks.acquire(d.txn, t.id, r.row,
                                             LockMode::X, nullptr);
        ++stats_.inDoubtRecovered;
        ++unresolved_;
        inDoubt_.emplace(d.gtid, std::move(d));
    }
    up_ = true;
    for (const auto &[gtid, d] : inDoubt_)
        loop_.spawn(inquiryLoop(gtid));
    for (const auto &[gtid, parts] : decisionLog_)
        if (!parts.empty())
            loop_.spawn(decisionSender(gtid));
}

// ----- client entry points -------------------------------------------

void
ClusterNode::submitLocal(std::vector<TxnOp> ops, OutcomeFn done)
{
    // Clients live in the root domain; the transaction's work must
    // belong to this incarnation so a crash kills it.
    DomainScope scope(loop_, domain_);
    loop_.spawn(runLocal(std::move(ops), std::move(done)));
}

void
ClusterNode::submitCoordinated(uint64_t gtid,
                               std::vector<BranchSpec> branches,
                               OutcomeFn done)
{
    CoordTxn c;
    c.branches = std::move(branches);
    c.done = std::move(done);
    coord_.emplace(gtid, std::move(c));
    DomainScope scope(loop_, domain_);
    loop_.spawn(coordinate(gtid));
}

Task<bool>
ClusterNode::applyOp(TxnCtx &txn, const TxnOp &op)
{
    Database::Table &t = db_->table("acct");
    RowId r = kInvalidRow;
    if (!co_await txn.seekRow(t, "a_id", op.key, LockMode::X, &r))
        co_return false;
    const int64_t cur = t.data->column("bal").getInt(r);
    co_await txn.updateRow(t, r, "bal", Value(cur + op.delta));
    co_return true;
}

Task<void>
ClusterNode::runLocal(std::vector<TxnOp> ops, OutcomeFn done)
{
    TxnCtx txn(*run_, run_->allocTxnId());
    for (const TxnOp &op : ops) {
        if (!co_await applyOp(txn, op)) {
            co_await txn.rollback();
            ++stats_.localAborted;
            if (done)
                done(TxnOutcome::Aborted);
            co_return;
        }
    }
    co_await txn.commit();
    ++stats_.localCommitted;
    if (done)
        done(TxnOutcome::Committed);
}

// ----- coordinator ---------------------------------------------------

Task<void>
ClusterNode::coordinate(uint64_t gtid)
{
    CoordTxn &c = coord_.at(gtid);
    // Phase one: fan out ExecPrepare, re-sending to silent branches
    // with capped exponential backoff. A "no" vote decides abort
    // immediately; exhausting the budget is a prepare timeout, which
    // presumed abort makes safe to abort unilaterally.
    bool any_no = false;
    for (int attempt = 1; attempt <= kPrepareAttempts; ++attempt) {
        for (const BranchSpec &br : c.branches) {
            if (c.votes.count(br.node))
                continue;
            ExecPrepareMsg m;
            m.gtid = gtid;
            m.coordNode = id_;
            m.ops = br.ops;
            ClusterNode &peer = peer_(br.node);
            net_.send(id_, br.node,
                      [&peer, m] { peer.recvExecPrepare(m); });
        }
        co_await SimDelay(loop_, cappedExpDelay(kPrepareBackoffBase,
                                                kPrepareBackoffCap,
                                                attempt));
        any_no = false;
        for (const auto &[node, yes] : c.votes)
            if (!yes)
                any_no = true;
        if (any_no || c.votes.size() == c.branches.size())
            break;
    }
    const bool commit =
        !any_no && c.votes.size() == c.branches.size();

    if (commit) {
        // Log + flush the decision before any participant can learn
        // it: recovery must be able to re-derive "commit" or the
        // presumed-abort rule would roll back acked work.
        WalRecord rec;
        rec.kind = WalRecord::Kind::Decision;
        rec.gtid = gtid;
        std::vector<int> parts;
        for (const BranchSpec &br : c.branches) {
            rec.rowImage.push_back(Value(int64_t(br.node)));
            parts.push_back(br.node);
        }
        const uint64_t lsn =
            run_->wal.append(oltpcost::kLogBytesPrepare);
        run_->wal.log(std::move(rec));
        co_await run_->wal.commit(lsn, nullptr);
        decisionLog_[gtid] = std::move(parts);
        ++stats_.decisionsLogged;
        ++stats_.coordCommitted;
    } else {
        for (const BranchSpec &br : c.branches)
            c.unacked.push_back(br.node);
        ++stats_.coordAborted;
    }
    // `decided` flips only now, after a commit decision is in
    // decisionLog_: an inquiry arriving during the decision flush
    // must keep getting "still deciding" — answering from the
    // presumed-abort rule in that window would split the branches.
    c.decided = true;
    c.commit = commit;
    // The client learns the outcome at the decision point.
    if (c.done)
        c.done(commit ? TxnOutcome::Committed : TxnOutcome::Aborted);
    co_await decisionSender(gtid);
}

std::vector<int>
ClusterNode::pendingDecisionTargets(uint64_t gtid) const
{
    auto logged = decisionLog_.find(gtid);
    if (logged != decisionLog_.end())
        return logged->second;
    auto it = coord_.find(gtid);
    if (it != coord_.end())
        return it->second.unacked;
    return {};
}

Task<void>
ClusterNode::decisionSender(uint64_t gtid)
{
    const bool commit = decisionLog_.count(gtid) > 0;
    for (int attempt = 1; attempt <= kDecisionAttempts; ++attempt) {
        const std::vector<int> targets = pendingDecisionTargets(gtid);
        if (targets.empty())
            break;
        for (int n : targets) {
            DecisionMsg d;
            d.gtid = gtid;
            d.commit = commit;
            ClusterNode &peer = peer_(n);
            net_.send(id_, n, [&peer, d] { peer.recvDecision(d); });
        }
        co_await SimDelay(loop_,
                          cappedExpDelay(kDecisionBackoffBase,
                                         kDecisionBackoffCap, attempt));
    }
    // Unacked leftovers resolve via the participants' inquiry loops
    // (commit answers come from decisionLog_, the rest presume abort).
    coord_.erase(gtid);
}

void
ClusterNode::recvVote(VoteMsg m)
{
    auto it = coord_.find(m.gtid);
    if (it == coord_.end() || it->second.decided)
        return;
    it->second.votes.emplace(m.fromNode, m.yes);
}

void
ClusterNode::recvDecisionAck(DecisionAckMsg m)
{
    auto logged = decisionLog_.find(m.gtid);
    if (logged != decisionLog_.end()) {
        auto &v = logged->second;
        v.erase(std::remove(v.begin(), v.end(), m.fromNode), v.end());
    }
    auto it = coord_.find(m.gtid);
    if (it != coord_.end()) {
        auto &v = it->second.unacked;
        v.erase(std::remove(v.begin(), v.end(), m.fromNode), v.end());
    }
}

void
ClusterNode::recvDecisionRequest(DecisionRequestMsg m)
{
    ++stats_.inquiriesAnswered;
    auto it = coord_.find(m.gtid);
    if (it != coord_.end() && !it->second.decided)
        return; // still deciding; the inquirer will retry
    DecisionMsg d;
    d.gtid = m.gtid;
    d.commit = decisionLog_.count(m.gtid) > 0;
    ClusterNode &peer = peer_(m.fromNode);
    net_.send(id_, m.fromNode, [&peer, d] { peer.recvDecision(d); });
}

// ----- participant ---------------------------------------------------

void
ClusterNode::sendVote(int coord_node, uint64_t gtid, bool yes)
{
    VoteMsg v;
    v.gtid = gtid;
    v.fromNode = id_;
    v.yes = yes;
    ClusterNode &peer = peer_(coord_node);
    net_.send(id_, coord_node, [&peer, v] { peer.recvVote(v); });
}

void
ClusterNode::sendAck(uint64_t gtid)
{
    DecisionAckMsg a;
    a.gtid = gtid;
    a.fromNode = id_;
    const int coord = gtidCoordinator(gtid);
    ClusterNode &peer = peer_(coord);
    net_.send(id_, coord, [&peer, a] { peer.recvDecisionAck(a); });
}

void
ClusterNode::recvExecPrepare(ExecPrepareMsg m)
{
    if (inDoubt_.count(m.gtid)) {
        // Prepared before the crash and still awaiting a verdict:
        // re-vote yes so a still-collecting coordinator can proceed.
        ++stats_.dupExecPrepares;
        sendVote(m.coordNode, m.gtid, true);
        return;
    }
    auto res = resolved_.find(m.gtid);
    if (res != resolved_.end()) {
        // A late duplicate after resolution: never re-execute.
        ++stats_.dupExecPrepares;
        sendVote(m.coordNode, m.gtid, res->second);
        return;
    }
    auto it = branches_.find(m.gtid);
    if (it != branches_.end()) {
        ++stats_.dupExecPrepares;
        if (it->second.st == Branch::St::Prepared)
            sendVote(m.coordNode, m.gtid, true);
        return; // Executing/Resolving: the vote or ack is on its way
    }
    // Register the branch synchronously: a decision delivered in the
    // same instant (reordered ahead of the vote) must find the entry
    // and stash itself rather than being dropped as an unknown gtid.
    Branch &b = branches_[m.gtid];
    b.coordNode = m.coordNode;
    loop_.spawn(runBranch(std::move(m)));
}

Task<void>
ClusterNode::runBranch(ExecPrepareMsg m)
{
    Branch &b = branches_.at(m.gtid);
    b.txn = std::make_unique<TxnCtx>(*run_, run_->allocTxnId());
    ++stats_.branchesExecuted;

    bool ok = true;
    for (const TxnOp &op : m.ops) {
        if (!co_await applyOp(*b.txn, op)) {
            ok = false;
            break;
        }
    }
    // An abort decision that raced ahead of execution wins.
    if (b.pendingDecision == 0)
        ok = false;
    if (!ok) {
        co_await b.txn->rollback();
        ++stats_.voteAborts;
        resolved_.emplace(m.gtid, false);
        const int coord = b.coordNode;
        branches_.erase(m.gtid);
        sendVote(coord, m.gtid, false);
        co_return;
    }

    co_await b.txn->prepare(m.gtid);
    ++stats_.prepares;
    ++unresolved_;
    b.st = Branch::St::Prepared;
    if (b.pendingDecision >= 0) {
        // The decision (reordered ahead of the vote) is already here.
        b.st = Branch::St::Resolving;
        const bool commit = b.pendingDecision == 1;
        sendVote(b.coordNode, m.gtid, true);
        co_await resolveBranch(m.gtid, commit);
        co_return;
    }
    sendVote(b.coordNode, m.gtid, true);
    // Watchdog: if the decision never arrives (coordinator crash or
    // message loss), the inquiry loop asks until it resolves.
    loop_.spawn(inquiryLoop(m.gtid));
}

void
ClusterNode::recvDecision(DecisionMsg m)
{
    auto held = inDoubt_.find(m.gtid);
    if (held != inDoubt_.end()) {
        InDoubtTxn d = std::move(held->second);
        inDoubt_.erase(held);
        // The decision is final now: record it before the (awaiting)
        // resolution so a duplicate ExecPrepare landing mid-resolution
        // cannot re-execute the branch.
        resolved_[m.gtid] = m.commit;
        loop_.spawn(resolveInDoubt(std::move(d), m.commit));
        return;
    }
    auto it = branches_.find(m.gtid);
    if (it == branches_.end()) {
        // Unknown or already resolved: idempotent re-ack so the
        // sender stops retrying.
        if (resolved_.count(m.gtid))
            ++stats_.dupDecisions;
        sendAck(m.gtid);
        return;
    }
    Branch &b = it->second;
    if (b.st == Branch::St::Executing) {
        b.pendingDecision = m.commit ? 1 : 0;
        return;
    }
    if (b.st == Branch::St::Resolving) {
        ++stats_.dupDecisions;
        return; // ack follows when the first resolution completes
    }
    b.st = Branch::St::Resolving;
    loop_.spawn(resolveBranch(m.gtid, m.commit));
}

Task<void>
ClusterNode::resolveBranch(uint64_t gtid, bool commit)
{
    Branch &b = branches_.at(gtid);
    if (commit)
        co_await b.txn->commit();
    else
        co_await b.txn->rollback();
    resolved_.emplace(gtid, commit);
    branches_.erase(gtid);
    --unresolved_;
    sendAck(gtid);
}

Task<void>
ClusterNode::resolveInDoubt(InDoubtTxn d, bool commit)
{
    if (commit) {
        const uint64_t lsn = run_->wal.append(0);
        WalRecord rec;
        rec.kind = WalRecord::Kind::Commit;
        rec.txn = d.txn;
        run_->wal.log(std::move(rec));
        co_await run_->wal.commit(lsn, nullptr);
        // History marker at durable-ack, locks still held: the order
        // is a valid serialization order (same rule as TxnCtx).
        run_->wal.noteDurableCommit(d.txn);
        ++stats_.inDoubtCommitted;
        ++run_->txnsCommitted;
    } else {
        for (auto it = d.records.rbegin(); it != d.records.rend(); ++it)
            applyUndo(*db_, *it);
        run_->wal.append(0);
        WalRecord rec;
        rec.kind = WalRecord::Kind::Abort;
        rec.txn = d.txn;
        run_->wal.log(std::move(rec));
        ++stats_.inDoubtAborted;
        ++run_->txnsAborted;
    }
    run_->locks.releaseAll(d.txn);
    run_->noteTxnEnd(d.txn);
    resolved_.emplace(d.gtid, commit);
    --unresolved_;
    sendAck(d.gtid);
}

Task<void>
ClusterNode::inquiryLoop(uint64_t gtid)
{
    for (int attempt = 1;; ++attempt) {
        co_await SimDelay(loop_,
                          cappedExpDelay(kInquiryBackoffBase,
                                         kInquiryBackoffCap, attempt));
        auto it = branches_.find(gtid);
        const bool live_prepared =
            it != branches_.end() &&
            it->second.st == Branch::St::Prepared;
        if (!live_prepared && !inDoubt_.count(gtid))
            co_return; // resolved (or resolution in flight)
        ++stats_.inquiriesSent;
        DecisionRequestMsg m;
        m.gtid = gtid;
        m.fromNode = id_;
        const int coord = gtidCoordinator(gtid);
        ClusterNode &peer = peer_(coord);
        net_.send(id_, coord,
                  [&peer, m] { peer.recvDecisionRequest(m); });
    }
}

} // namespace cluster
} // namespace dbsens
