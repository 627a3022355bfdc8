/**
 * @file
 * One cluster node: a shard's Database, a crash-surviving WAL journal
 * and history, and a sequence of SimRun incarnations on the shared
 * fleet EventLoop. The node is both a 2PC participant (executes
 * branches, hardens Prepare records, holds in-doubt branches across
 * crash recovery) and a coordinator (collects votes with backed-off
 * retries, logs commit decisions before sending them, answers
 * in-doubt inquiries under the presumed-abort rule).
 */

#ifndef DBSENS_CLUSTER_NODE_H
#define DBSENS_CLUSTER_NODE_H

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/net.h"
#include "cluster/twopc.h"
#include "engine/recovery.h"
#include "engine/sim_run.h"
#include "engine/txn_ctx.h"

namespace dbsens {
namespace cluster {

/** Initial balance of every account row (the conservation audit
 * checks the fleet-wide sum never drifts from rows x this). */
inline constexpr int64_t kInitialBalance = 1000;

/** Per-node protocol and fault counters (fleet report material). */
struct NodeStats
{
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    uint64_t branchesExecuted = 0;
    uint64_t prepares = 0;
    uint64_t voteAborts = 0;
    uint64_t decisionsLogged = 0;
    uint64_t dupDecisions = 0;     ///< idempotently re-acked
    uint64_t dupExecPrepares = 0;  ///< deduplicated re-deliveries
    uint64_t inquiriesSent = 0;
    uint64_t inquiriesAnswered = 0;
    uint64_t inDoubtRecovered = 0; ///< held across a crash restart
    uint64_t inDoubtCommitted = 0;
    uint64_t inDoubtAborted = 0;
    uint64_t localCommitted = 0;   ///< single-shard fast path
    uint64_t localAborted = 0;
    uint64_t coordCommitted = 0;
    uint64_t coordAborted = 0;
    SimDuration recoveryNs = 0;
};

/** One crash-restartable shard server. */
class ClusterNode
{
  public:
    /** Decision reached for a submitted transaction (client callback;
     * never invoked if the node crashes first — the client's deadline
     * reports Unknown and recovery resolves the transaction). */
    using OutcomeFn = std::function<void(TxnOutcome)>;

    ClusterNode(int id, const ClusterConfig &cfg, EventLoop &loop,
                NetModel &net);
    ~ClusterNode();

    ClusterNode(const ClusterNode &) = delete;
    ClusterNode &operator=(const ClusterNode &) = delete;

    /** Generate node `node`'s shard database. Deterministic in (cfg
     * seed, node id) so the verify oracle can regenerate a pristine
     * copy for history replay. */
    static std::unique_ptr<Database>
    makeShardDb(const ClusterConfig &cfg, int node);

    int id() const { return id_; }
    bool up() const { return up_; }
    DomainId domain() const { return domain_; }
    Database &db() { return *db_; }
    const WalHistory &history() const { return history_; }
    SimRun *run() { return run_.get(); }
    NodeStats &stats() { return stats_; }
    const NodeStats &stats() const { return stats_; }

    /** Route for outbound messages (set by the fleet). */
    void setPeerFn(std::function<ClusterNode &(int)> fn)
    {
        peer_ = std::move(fn);
    }

    /** Build the shard's database and boot the first incarnation. */
    void boot();

    /** Kill the current incarnation: its domain dies, volatile state
     * is lost, the journal/history/database survive. */
    void crash();

    /** Restart after a crash: replay the WAL, hold in-doubt branches
     * (re-acquiring their locks before serving), re-harden them and
     * the decision log into the fresh log, re-send logged decisions,
     * and spawn inquiry loops for every in-doubt branch. */
    void restart();

    /** True once every prepared/in-doubt branch has been resolved. */
    bool quiesced() const { return unresolved_ == 0; }

    /** Prepared + in-doubt branches awaiting a verdict. */
    int unresolvedCount() const { return unresolved_; }

    // ----- client entry points (called via NetModel delivery)

    /** Single-shard transaction (1PC fast path). */
    void submitLocal(std::vector<TxnOp> ops, OutcomeFn done);

    /** Cross-shard transaction with this node as coordinator. */
    void submitCoordinated(uint64_t gtid,
                           std::vector<BranchSpec> branches,
                           OutcomeFn done);

    // ----- protocol message handlers (called via NetModel delivery)

    void recvExecPrepare(ExecPrepareMsg m);
    void recvVote(VoteMsg m);
    void recvDecision(DecisionMsg m);
    void recvDecisionAck(DecisionAckMsg m);
    void recvDecisionRequest(DecisionRequestMsg m);

  private:
    struct Branch
    {
        enum class St : uint8_t { Executing, Prepared, Resolving };
        St st = St::Executing;
        std::unique_ptr<TxnCtx> txn;
        int coordNode = 0;
        /** -1 none, 0 abort, 1 commit: a decision that arrived while
         * the branch was still executing (reordered delivery). */
        int pendingDecision = -1;
    };

    /** Coordinator-side state for one in-flight gtid. */
    struct CoordTxn
    {
        std::vector<BranchSpec> branches;
        std::unordered_map<int, bool> votes; ///< node -> yes
        bool decided = false;
        bool commit = false;
        OutcomeFn done;
        std::vector<int> unacked; ///< abort-path notify list
    };

    void startIncarnation(bool first);
    RunConfig nodeRunConfig(bool first) const;

    Task<void> recoveryTask(std::vector<InDoubtTxn> held,
                            SimDuration replay_delay);
    Task<void> runLocal(std::vector<TxnOp> ops, OutcomeFn done);
    Task<void> runBranch(ExecPrepareMsg m);
    Task<void> coordinate(uint64_t gtid);
    Task<void> decisionSender(uint64_t gtid);
    Task<void> inquiryLoop(uint64_t gtid);
    Task<void> resolveBranch(uint64_t gtid, bool commit);
    Task<void> resolveInDoubt(InDoubtTxn d, bool commit);

    /** Apply one transfer op under the running transaction. */
    Task<bool> applyOp(TxnCtx &txn, const TxnOp &op);

    void sendVote(int coord_node, uint64_t gtid, bool yes);
    void sendAck(uint64_t gtid);
    std::vector<int> pendingDecisionTargets(uint64_t gtid) const;

    int id_;
    const ClusterConfig &cfg_;
    EventLoop &loop_;
    NetModel &net_;
    std::function<ClusterNode &(int)> peer_;

    std::unique_ptr<Database> db_;
    WalJournal journal_; ///< survives crashes (stable storage)
    WalHistory history_; ///< never truncated (oracle input)
    std::unique_ptr<SimRun> run_;
    DomainId domain_ = 0;
    bool up_ = false;

    // Handoff across incarnations (one txn-id / LSN space per node).
    // walLsnBase_ doubles as the durable horizon of the last crash.
    TxnId txnIdBase_ = 0;
    uint64_t walLsnBase_ = 0;

    // Participant state (volatile; cleared on crash).
    std::unordered_map<uint64_t, Branch> branches_;
    /** Branch outcomes this incarnation: late duplicate ExecPrepares
     * must not re-execute a decided gtid. */
    std::unordered_map<uint64_t, bool> resolved_;
    /** Recovered in-doubt branches by gtid (entries move out when a
     * decision arrives). */
    std::unordered_map<uint64_t, InDoubtTxn> inDoubt_;
    /** Prepared + in-doubt branches not yet resolved (quiesce gate;
     * spans live branches, recovered in-doubt, and resolutions in
     * flight). */
    int unresolved_ = 0;

    // Coordinator state.
    std::unordered_map<uint64_t, CoordTxn> coord_;
    /** Commit decision log, rebuilt from journal Decision records at
     * restart (presumed abort: absence means abort). Values are the
     * participant nodes still to be notified; the entry itself is
     * permanent — erasing it would turn a commit into a presumed
     * abort on the next inquiry. */
    std::unordered_map<uint64_t, std::vector<int>> decisionLog_;

    NodeStats stats_;
};

} // namespace cluster
} // namespace dbsens

#endif // DBSENS_CLUSTER_NODE_H
