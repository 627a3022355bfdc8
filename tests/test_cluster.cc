/**
 * @file
 * Cluster / 2PC protocol tests: the presumed-abort edge cases the
 * fleet chaos bench exercises statistically, pinned here one at a
 * time — coordinator crash between prepare-acks and the decision
 * log, participant crash after prepare (in-doubt held across
 * restart), duplicate and reordered decision delivery, and prepare
 * timeout under total message loss. Plus fleet-level determinism:
 * one config, two runs, bit-identical outcomes.
 */

#include <gtest/gtest.h>

#include "cluster/fleet.h"

namespace dbsens {
namespace cluster {
namespace {

ClusterConfig
quietConfig()
{
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.seed = 7;
    cfg.rowsPerShard = 200;
    cfg.tenants = 1;
    cfg.arrivalsPerMs = 0; // tests drive their own transactions
    cfg.crashesPerNode = 0;
    cfg.window = milliseconds(20);
    cfg.drain = milliseconds(20);
    return cfg;
}

/** Balance of `key` on the node that owns it. */
int64_t
balanceOf(Fleet &fleet, int64_t key)
{
    ClusterNode &n = fleet.node(fleet.router().route(key));
    const int64_t local = key - fleet.router()
                                    .catalog(n.id())
                                    .keyLo;
    return n.db().table("acct").data->column("bal").getInt(
        RowId(local));
}

std::vector<BranchSpec>
transferBranches(Fleet &fleet, int64_t from, int64_t to, int64_t amt)
{
    BranchSpec a;
    a.node = fleet.router().route(from);
    a.ops.push_back(TxnOp{from, -amt});
    BranchSpec b;
    b.node = fleet.router().route(to);
    b.ops.push_back(TxnOp{to, amt});
    return {std::move(a), std::move(b)};
}

/** Run the loop in small steps until `done` or the time budget ends. */
template <typename F>
void
runUntil(EventLoop &loop, F done, SimDuration budget)
{
    const SimTime end = loop.now() + budget;
    while (!done() && loop.now() < end)
        loop.runUntil(loop.now() + microseconds(100));
}

TEST(Cluster, CrossShardCommitMovesBalanceOnce)
{
    ClusterConfig cfg = quietConfig();
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const int64_t from = 5, to = 205; // shard 0 -> shard 1
    auto outcome = std::make_shared<TxnOutcome>(TxnOutcome::Pending);
    fleet.node(0).submitCoordinated(
        makeGtid(0, 1), transferBranches(fleet, from, to, 40),
        [outcome](TxnOutcome o) { *outcome = o; });
    runUntil(
        fleet.loop(),
        [&] { return *outcome != TxnOutcome::Pending; },
        milliseconds(50));
    EXPECT_EQ(*outcome, TxnOutcome::Committed);

    // The client learns the outcome at the decision point; the
    // participants' branch resolutions ride the decision fan-out.
    runUntil(
        fleet.loop(),
        [&] {
            return fleet.node(0).quiesced() &&
                   fleet.node(1).quiesced();
        },
        milliseconds(50));
    EXPECT_EQ(balanceOf(fleet, from), kInitialBalance - 40);
    EXPECT_EQ(balanceOf(fleet, to), kInitialBalance + 40);
    EXPECT_TRUE(fleet.node(0).quiesced());
    EXPECT_TRUE(fleet.node(1).quiesced());
}

// Coordinator crashes after collecting prepare votes but before its
// decision record is logged: presumed abort must roll the prepared
// branch back via the participant's inquiry once the coordinator is
// back (its decision log has no entry for the gtid).
TEST(Cluster, CoordinatorCrashBeforeDecisionLogAborts)
{
    ClusterConfig cfg = quietConfig();
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const int64_t from = 5, to = 205;
    auto outcome = std::make_shared<TxnOutcome>(TxnOutcome::Pending);
    fleet.node(0).submitCoordinated(
        makeGtid(0, 1), transferBranches(fleet, from, to, 40),
        [outcome](TxnOutcome o) { *outcome = o; });

    // Wait for the participant to prepare (its vote is in or in
    // flight), then kill the coordinator inside its backoff slice.
    runUntil(
        fleet.loop(),
        [&] { return fleet.node(1).stats().prepares == 1; },
        milliseconds(20));
    ASSERT_EQ(fleet.node(1).stats().prepares, 1u);
    fleet.node(0).crash();
    fleet.loop().runUntil(fleet.loop().now() + milliseconds(1));
    fleet.node(0).restart();

    // The participant's inquiry loop must learn "abort" from the
    // recovered coordinator's empty decision log.
    runUntil(
        fleet.loop(),
        [&] {
            return fleet.node(0).quiesced() &&
                   fleet.node(1).quiesced() &&
                   fleet.node(0).up();
        },
        milliseconds(100));

    EXPECT_TRUE(fleet.node(1).quiesced());
    EXPECT_EQ(*outcome, TxnOutcome::Pending); // callback died with it
    EXPECT_EQ(balanceOf(fleet, from), kInitialBalance);
    EXPECT_EQ(balanceOf(fleet, to), kInitialBalance);
    EXPECT_GE(fleet.node(1).stats().inquiriesSent, 1u);
}

// Participant crashes after hardening its Prepare record: restart
// must hold the branch in-doubt (locks re-acquired, not undone) until
// the coordinator's retried decision commits it.
TEST(Cluster, ParticipantCrashAfterPrepareHeldInDoubt)
{
    ClusterConfig cfg = quietConfig();
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const int64_t from = 5, to = 205;
    auto outcome = std::make_shared<TxnOutcome>(TxnOutcome::Pending);
    fleet.node(0).submitCoordinated(
        makeGtid(0, 1), transferBranches(fleet, from, to, 40),
        [outcome](TxnOutcome o) { *outcome = o; });

    runUntil(
        fleet.loop(),
        [&] { return fleet.node(1).stats().prepares == 1; },
        milliseconds(20));
    ASSERT_EQ(fleet.node(1).stats().prepares, 1u);
    fleet.node(1).crash();
    fleet.loop().runUntil(fleet.loop().now() + milliseconds(1));
    fleet.node(1).restart();

    runUntil(
        fleet.loop(),
        [&] {
            return fleet.node(0).quiesced() &&
                   fleet.node(1).up() && fleet.node(1).quiesced();
        },
        milliseconds(100));

    EXPECT_EQ(fleet.node(1).stats().inDoubtRecovered, 1u);
    EXPECT_EQ(fleet.node(1).stats().inDoubtCommitted, 1u);
    EXPECT_EQ(balanceOf(fleet, from), kInitialBalance - 40);
    EXPECT_EQ(balanceOf(fleet, to), kInitialBalance + 40);
}

// Duplicate decision delivery must be idempotent: the branch commits
// once, later copies are re-acked without re-applying.
TEST(Cluster, DuplicateDecisionDeliveryIsIdempotent)
{
    ClusterConfig cfg = quietConfig();
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const uint64_t gtid = makeGtid(0, 9);
    ExecPrepareMsg m;
    m.gtid = gtid;
    m.coordNode = 0;
    m.ops.push_back(TxnOp{205, 25});
    fleet.node(1).recvExecPrepare(m);
    runUntil(
        fleet.loop(),
        [&] { return fleet.node(1).stats().prepares == 1; },
        milliseconds(20));
    ASSERT_EQ(fleet.node(1).stats().prepares, 1u);

    DecisionMsg d;
    d.gtid = gtid;
    d.commit = true;
    fleet.node(1).recvDecision(d);
    fleet.node(1).recvDecision(d); // duplicate while resolving
    runUntil(
        fleet.loop(),
        [&] { return fleet.node(1).quiesced(); },
        milliseconds(50));
    fleet.node(1).recvDecision(d); // duplicate after resolution
    fleet.loop().runUntil(fleet.loop().now() + milliseconds(1));

    EXPECT_GE(fleet.node(1).stats().dupDecisions, 2u);
    EXPECT_EQ(balanceOf(fleet, 205), kInitialBalance + 25);
}

// A decision that overtakes the branch's own execution (reordered
// delivery) is stashed and applied exactly once when the branch
// finishes preparing.
TEST(Cluster, ReorderedDecisionBeforePrepareApplies)
{
    ClusterConfig cfg = quietConfig();
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const uint64_t gtid = makeGtid(0, 9);
    ExecPrepareMsg m;
    m.gtid = gtid;
    m.coordNode = 0;
    m.ops.push_back(TxnOp{205, 25});
    fleet.node(1).recvExecPrepare(m);
    // The branch is still executing (it needs simulated CPU + WAL
    // time); the decision lands first.
    DecisionMsg d;
    d.gtid = gtid;
    d.commit = true;
    fleet.node(1).recvDecision(d);

    runUntil(
        fleet.loop(),
        [&] { return fleet.node(1).quiesced() &&
                     fleet.node(1).stats().prepares == 1; },
        milliseconds(50));
    EXPECT_EQ(fleet.node(1).stats().prepares, 1u);
    EXPECT_EQ(balanceOf(fleet, 205), kInitialBalance + 25);

    // A duplicate ExecPrepare after resolution must not re-execute.
    fleet.node(1).recvExecPrepare(m);
    fleet.loop().runUntil(fleet.loop().now() + milliseconds(2));
    EXPECT_GE(fleet.node(1).stats().dupExecPrepares, 1u);
    EXPECT_EQ(balanceOf(fleet, 205), kInitialBalance + 25);
}

// Under total message loss the coordinator's prepare budget runs out
// with no vote from the remote branch; presumed abort lets it abort
// unilaterally without any decision logging.
TEST(Cluster, PrepareTimeoutUnderTotalLossAborts)
{
    ClusterConfig cfg = quietConfig();
    cfg.net.lossRate = 1.0; // self-sends bypass the loss draw
    Fleet fleet(cfg);
    fleet.node(0).boot();
    fleet.node(1).boot();

    const int64_t from = 5, to = 205;
    auto outcome = std::make_shared<TxnOutcome>(TxnOutcome::Pending);
    fleet.node(0).submitCoordinated(
        makeGtid(0, 1), transferBranches(fleet, from, to, 40),
        [outcome](TxnOutcome o) { *outcome = o; });
    runUntil(
        fleet.loop(),
        [&] { return *outcome != TxnOutcome::Pending; },
        milliseconds(60));

    EXPECT_EQ(*outcome, TxnOutcome::Aborted);
    EXPECT_EQ(fleet.node(0).stats().coordAborted, 1u);
    EXPECT_EQ(fleet.node(0).stats().decisionsLogged, 0u);
    EXPECT_EQ(balanceOf(fleet, from), kInitialBalance);
    EXPECT_EQ(balanceOf(fleet, to), kInitialBalance);
    runUntil(
        fleet.loop(),
        [&] { return fleet.node(0).quiesced(); },
        milliseconds(60));
    EXPECT_TRUE(fleet.node(0).quiesced());
    EXPECT_TRUE(fleet.node(1).quiesced());
}

// One config, two fleets: the whole episode is deterministic — same
// commit counts, same crash counts, bit-identical shard digests.
TEST(Cluster, FleetEpisodeIsDeterministic)
{
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.seed = 99;
    cfg.rowsPerShard = 300;
    cfg.tenants = 2;
    cfg.arrivalsPerMs = 1.0;
    cfg.crashesPerNode = 1;
    cfg.net.lossRate = 0.05;
    cfg.net.dupRate = 0.05;
    cfg.window = milliseconds(20);
    cfg.drain = milliseconds(20);

    Fleet a(cfg), b(cfg);
    const FleetResult ra = a.run();
    const FleetResult rb = b.run();

    EXPECT_EQ(ra.totalCommitted(), rb.totalCommitted());
    EXPECT_EQ(ra.crashesInjected, rb.crashesInjected);
    EXPECT_EQ(ra.netSent, rb.netSent);
    EXPECT_EQ(a.nodeDigests(), b.nodeDigests());
    EXPECT_TRUE(ra.passed()) << ra.audit.summary();
    EXPECT_TRUE(rb.passed()) << rb.audit.summary();
}

} // namespace
} // namespace cluster
} // namespace dbsens
