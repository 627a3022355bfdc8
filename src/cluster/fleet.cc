#include "cluster/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/backoff.h"
#include "core/digest.h"
#include "core/fault.h"

namespace dbsens {
namespace cluster {

namespace {

// Open-loop arrival shape (per tenant).
/** Diurnal modulation amplitude in [0,1): rate(t) swings +/- this
 * fraction over one kDiurnalPeriod. */
constexpr double kDiurnalAmplitude = 0.5;
constexpr SimDuration kDiurnalPeriod = milliseconds(40);
/** Flash crowd: tenant 0's rate is multiplied by this factor inside
 * [kFlashStart, kFlashStart + kFlashDuration). */
constexpr double kFlashFactor = 3.0;
constexpr SimTime kFlashStart = milliseconds(20);
constexpr SimDuration kFlashDuration = milliseconds(8);
/** Fraction of transactions spanning more than one shard. */
constexpr double kCrossShardFraction = 0.35;
/** Zipf skew of key choice within a shard. */
constexpr double kZipfTheta = 0.6;

/** Client gives up waiting for an outcome after this long (the
 * transaction itself still resolves via recovery/inquiry). */
constexpr SimDuration kClientDeadline = milliseconds(30);
constexpr int kClientRetries = 3;

/** Fold a database's per-table digests into one value: FNV-1a over
 * each name's bytes, then the whole per-table digest word. */
uint64_t
foldDigest(const std::map<std::string, uint64_t> &per_table)
{
    uint64_t h = kFnvBasis;
    for (const auto &[name, d] : per_table) {
        h = fnv1a(name.data(), name.size(), h);
        h ^= d;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

uint64_t
FleetResult::totalCommitted() const
{
    uint64_t n = 0;
    for (const TenantStats &t : tenants)
        n += t.committed;
    return n;
}

uint64_t
FleetResult::totalSubmitted() const
{
    uint64_t n = 0;
    for (const TenantStats &t : tenants)
        n += t.submitted;
    return n;
}

Fleet::Fleet(const ClusterConfig &cfg)
    : cfg_(cfg), router_(cfg.nodes, cfg.rowsPerShard),
      net_(loop_, cfg.net, deriveNodeFaultSeed(cfg.seed, 1000)),
      arrivalRng_(deriveNodeFaultSeed(cfg.seed, 2000)),
      chaosRng_(deriveNodeFaultSeed(cfg.seed, 3000)),
      zipf_(uint64_t(cfg.rowsPerShard), kZipfTheta)
{
    if (cfg.sketch) {
        const uint64_t sseed = cfg.seed ^ 0x5eedf1ee7ULL;
        keyHeat_ = std::make_unique<sketch::PartitionedCms>(
            uint32_t(cfg.nodes), 4096, 4, sseed);
        keyHeatAll_ =
            std::make_unique<sketch::CountMinSketch>(4096, 4, sseed);
        for (int n = 0; n < cfg.nodes; ++n)
            nodeLat_.emplace_back(
                200, sseed ^ (uint64_t(n) * 0x9e3779b97f4a7c15ULL + 1));
    }
    for (int n = 0; n < cfg.nodes; ++n)
        nodes_.push_back(
            std::make_unique<ClusterNode>(n, cfg_, loop_, net_));
    for (auto &node : nodes_)
        node->setPeerFn(
            [this](int n) -> ClusterNode & { return *nodes_[size_t(n)]; });
    net_.setPeers(NetModel::Peers{
        [this](int n) { return nodes_[size_t(n)]->up(); },
        [this](int n) { return nodes_[size_t(n)]->domain(); }});
}

Fleet::~Fleet() = default;

double
Fleet::rateAt(int tenant, SimTime t) const
{
    const double base = cfg_.arrivalsPerMs / double(milliseconds(1));
    const double phase =
        2.0 * M_PI * double(t) / double(kDiurnalPeriod);
    double r = base * (1.0 + kDiurnalAmplitude * std::sin(phase));
    if (tenant == 0 && t >= kFlashStart && t < kFlashStart + kFlashDuration)
        r *= kFlashFactor;
    return r;
}

void
Fleet::drawArrivals(int tenant, std::vector<Arrival> &out)
{
    // Thinned Poisson process: draw candidates at the peak rate and
    // accept with rate(t)/peak, giving the diurnal + flash shape.
    double peak = cfg_.arrivalsPerMs / double(milliseconds(1)) *
                  (1.0 + kDiurnalAmplitude);
    if (tenant == 0)
        peak *= kFlashFactor;
    double t = 0;
    while (true) {
        t += arrivalRng_.exponential(1.0 / peak);
        if (SimTime(t) >= cfg_.window)
            break;
        const SimTime at = SimTime(t);
        if (!arrivalRng_.chance(rateAt(tenant, at) / peak))
            continue;

        Arrival a;
        a.tenant = tenant;
        a.at = at;
        const int s1 = int(arrivalRng_.uniform(uint64_t(cfg_.nodes)));
        const int64_t k1 = router_.catalog(s1).keyLo +
                           int64_t(zipf_(arrivalRng_));
        int s2 = s1;
        if (cfg_.nodes > 1 &&
            arrivalRng_.chance(kCrossShardFraction)) {
            s2 = int(arrivalRng_.uniform(uint64_t(cfg_.nodes - 1)));
            if (s2 >= s1)
                ++s2;
        }
        int64_t k2 = router_.catalog(s2).keyLo +
                     int64_t(zipf_(arrivalRng_));
        while (k2 == k1)
            k2 = router_.catalog(s2).keyLo +
                 int64_t(arrivalRng_.uniform(uint64_t(cfg_.rowsPerShard)));
        const int64_t amount = 1 + int64_t(arrivalRng_.uniform(10));
        a.ops.push_back(TxnOp{k1, -amount});
        a.ops.push_back(TxnOp{k2, amount});
        a.shards.push_back(s1);
        if (s2 != s1)
            a.shards.push_back(s2);
        std::sort(a.shards.begin(), a.shards.end());
        out.push_back(std::move(a));
    }
}

Task<void>
Fleet::clientTask(Arrival a)
{
    TenantStats &ten = tenants_[size_t(a.tenant)];
    ++ten.submitted;
    if (a.shards.size() > 1)
        ++ten.crossShard;
    const SimTime arrived = loop_.now();

    if (keyHeat_) {
        // Per-shard key heat at the router: each key's touch lands in
        // its owning shard's partition, and the reference sketch sees
        // the same concatenated stream.
        for (const TxnOp &op : a.ops) {
            keyHeat_->updatePart(uint32_t(router_.route(op.key)),
                                 uint64_t(op.key));
            keyHeatAll_->update(uint64_t(op.key));
            ++sketchKeys_;
        }
    }

    for (int attempt = 0; attempt <= kClientRetries; ++attempt) {
        const int coordNode = router_.route(a.ops[0].key);
        ClusterNode &coord = *nodes_[size_t(coordNode)];
        if (!coord.up()) {
            if (attempt == kClientRetries) {
                ++ten.rejected;
                co_return;
            }
            co_await SimDelay(
                loop_, cappedExpDelay(microseconds(500),
                                      milliseconds(4), attempt + 1));
            continue;
        }
        ++ten.attempts;
        auto slot =
            std::make_shared<TxnOutcome>(TxnOutcome::Pending);
        auto done = [slot](TxnOutcome o) { *slot = o; };
        if (a.shards.size() == 1) {
            coord.submitLocal(a.ops, done);
        } else {
            std::vector<BranchSpec> branches;
            for (int s : a.shards) {
                BranchSpec br;
                br.node = s;
                for (const TxnOp &op : a.ops)
                    if (router_.route(op.key) == s)
                        br.ops.push_back(op);
                branches.push_back(std::move(br));
            }
            // A fresh gtid per attempt: a retried transaction is a
            // new global transaction, never a replay of the old one.
            const uint64_t gtid = makeGtid(coordNode, ++gtidSeq_);
            coord.submitCoordinated(gtid, std::move(branches), done);
        }

        const SimTime deadline = loop_.now() + kClientDeadline;
        while (*slot == TxnOutcome::Pending && loop_.now() < deadline)
            co_await SimDelay(loop_, microseconds(200));

        if (*slot == TxnOutcome::Committed) {
            ++ten.committed;
            const double lat_ms = double(loop_.now() - arrived) /
                                  double(milliseconds(1));
            ten.latencyMs.add(lat_ms);
            if (!nodeLat_.empty())
                nodeLat_[size_t(coordNode)].update(lat_ms);
            co_return;
        }
        if (*slot == TxnOutcome::Pending) {
            // Deadline passed with no decision (node crash or network
            // stall mid-protocol). The outcome is unknowable here and
            // a retry could double-apply; recovery resolves the gtid.
            ++ten.unknown;
            co_return;
        }
        // Decided abort: safe to retry with a fresh gtid.
        if (attempt == kClientRetries) {
            ++ten.aborted;
            co_return;
        }
        co_await SimDelay(loop_,
                          cappedExpDelay(microseconds(500),
                                         milliseconds(4), attempt + 1));
    }
}

Task<void>
Fleet::chaosTask(int node, SimTime crash_at)
{
    co_await SimDelay(loop_, crash_at - loop_.now());
    ClusterNode &n = *nodes_[size_t(node)];
    if (!n.up())
        co_return; // already down from an overlapping schedule
    n.crash();
    ++crashesInjected_;
    events_.push_back({node, loop_.now(), "crash"});
    co_await SimDelay(loop_, cfg_.restartDelay);
    if (!n.up()) {
        events_.push_back({node, loop_.now(), "restart"});
        n.restart();
    }
}

FleetResult
Fleet::run()
{
    for (auto &n : nodes_)
        n->boot();
    tenants_.assign(size_t(cfg_.tenants), TenantStats{});

    // Schedule every arrival up front (open loop: submission times do
    // not depend on service times).
    for (int t = 0; t < cfg_.tenants; ++t) {
        std::vector<Arrival> arrivals;
        drawArrivals(t, arrivals);
        for (Arrival &a : arrivals) {
            const SimTime at = a.at;
            loop_.at(at, [this, a = std::move(a)]() mutable {
                loop_.spawn(clientTask(std::move(a)));
            });
        }
    }

    // Chaos regime: crashesPerNode expected crashes per node, crash
    // times uniform inside the middle of the window so the restart
    // (and its recovery) also lands inside it.
    for (int n = 0; n < cfg_.nodes; ++n) {
        const double expect = cfg_.crashesPerNode;
        int count = int(expect);
        if (chaosRng_.chance(expect - double(count)))
            ++count;
        for (int c = 0; c < count; ++c) {
            const SimTime lo = cfg_.window / 10;
            const SimTime hi = (cfg_.window * 8) / 10;
            const SimTime at =
                lo + SimTime(chaosRng_.uniform(uint64_t(hi - lo)));
            loop_.at(at, [this, n, at] {
                loop_.spawn(chaosTask(n, at));
            });
        }
    }

    // Heal-and-drain: at the window edge the network stops losing and
    // duplicating messages, every down node restarts, and the tail
    // gives retries and in-doubt inquiries time to resolve everything.
    loop_.at(cfg_.window, [this] {
        net_.heal();
        arrivalsOpen_ = false;
        for (size_t i = 0; i < nodes_.size(); ++i)
            if (!nodes_[i]->up()) {
                events_.push_back(
                    {int(i), loop_.now(), "heal-restart"});
                nodes_[i]->restart();
            }
    });

    loop_.runUntil(cfg_.window + cfg_.drain);
    // Give stragglers bounded extra time (lock queues + inquiry
    // backoff can exceed the nominal drain under heavy chaos).
    for (int extra = 0; extra < 10; ++extra) {
        bool quiet = true;
        for (auto &n : nodes_)
            if (!n->quiesced())
                quiet = false;
        if (quiet)
            break;
        loop_.runUntil(loop_.now() + milliseconds(10));
    }

    FleetResult r;
    r.tenants = tenants_;
    r.events = events_;
    std::stable_sort(r.events.begin(), r.events.end(),
                     [](const FleetEvent &a, const FleetEvent &b) {
                         return a.at < b.at ||
                                (a.at == b.at && a.node < b.node);
                     });
    for (auto &n : nodes_)
        r.nodes.push_back(n->stats());
    r.netSent = net_.sent();
    r.netDropped = net_.dropped();
    r.netDuplicated = net_.duplicated();
    r.crashesInjected = crashesInjected_;
    for (auto &n : nodes_) {
        r.inDoubtUnresolved += uint64_t(n->unresolvedCount());
        r.inDoubtResolved += n->stats().inDoubtCommitted +
                             n->stats().inDoubtAborted;
    }
    audit(r);
    sketchAudit(r);
    return r;
}

void
Fleet::sketchAudit(FleetResult &r)
{
    if (!keyHeat_)
        return;
    FleetSketchSummary &s = r.sketch;
    s.enabled = true;
    s.keysTracked = sketchKeys_;

    // Mergeable: per-shard partitions combined at the router must be
    // bit-identical to the reference sketch that saw the whole
    // concatenated key stream.
    const sketch::CountMinSketch merged = keyHeat_->merged();
    s.mergedDigest = merged.digest();
    ++s.checks;
    if (merged.digest() != keyHeatAll_->digest())
        r.audit.add("sketch", "router-merged key heat differs from "
                              "the whole-stream sketch");

    // Partitionable: split the shards into two migration groups,
    // extract each, and re-merging the halves must restore the whole
    // exactly.
    std::vector<uint32_t> even, odd;
    for (uint32_t p = 0; p < keyHeat_->parts(); ++p)
        (p % 2 == 0 ? even : odd).push_back(p);
    sketch::CountMinSketch rejoined = keyHeat_->extract(even);
    if (!odd.empty())
        rejoined.merge(keyHeat_->extract(odd));
    ++s.checks;
    if (rejoined.digest() != merged.digest())
        r.audit.add("sketch", "migration split + rejoin of the key "
                              "heat lost counts");

    // KLL rank bound: merge the per-node latency sketches and check
    // the merged quantiles against the exact commit-latency samples.
    sketch::KllSketch lat = nodeLat_[0];
    for (size_t n = 1; n < nodeLat_.size(); ++n)
        lat.merge(nodeLat_[n]);
    std::vector<double> exact;
    for (const TenantStats &t : r.tenants)
        for (double v : t.latencyMs.samples())
            exact.push_back(v);
    std::sort(exact.begin(), exact.end());
    ++s.checks;
    if (lat.count() != exact.size())
        r.audit.add("sketch",
                    "latency sketch count " +
                        std::to_string(lat.count()) + " != exact " +
                        std::to_string(exact.size()));
    s.latRankErrBound = lat.rankErrorBound();
    if (!exact.empty()) {
        s.latP50Ms = lat.quantile(0.5);
        s.latP99Ms = lat.quantile(0.99);
        for (double q : {0.5, 0.9, 0.99}) {
            const double v = lat.quantile(q);
            // Exact rank range of v (ties included) must sit within
            // the guaranteed bound of the target rank.
            const uint64_t lo = uint64_t(
                std::lower_bound(exact.begin(), exact.end(), v) -
                exact.begin());
            const uint64_t hi = uint64_t(
                std::upper_bound(exact.begin(), exact.end(), v) -
                exact.begin());
            const double target = q * double(exact.size());
            const double err =
                target < double(lo)
                    ? double(lo) - target
                    : (target > double(hi) ? target - double(hi) : 0);
            ++s.checks;
            if (err > double(lat.rankErrorBound()))
                r.audit.add(
                    "sketch",
                    "latency q" + std::to_string(q) + " off by " +
                        std::to_string(err) + " ranks, bound " +
                        std::to_string(lat.rankErrorBound()));
        }
    }
}

void
Fleet::audit(FleetResult &r)
{
    // Per-node serializability: replay each node's full history
    // against a pristine regeneration of its shard and compare
    // digests with the state the chaotic run actually produced.
    for (auto &n : nodes_) {
        auto oracle = ClusterNode::makeShardDb(cfg_, n->id());
        verify::replayOracle(n->db(), *oracle, n->history(), r.audit);
    }

    // Cross-shard atomicity: group branches by gtid via their Prepare
    // records; a gtid must not have both a committed branch and an
    // aborted one, nor a prepared branch that never resolved.
    struct GtidState
    {
        int committed = 0;
        int aborted = 0;
        int unresolved = 0;
    };
    std::map<uint64_t, GtidState> gtids;
    for (auto &n : nodes_) {
        std::map<TxnId, uint64_t> txnGtid;
        std::set<TxnId> decided;
        for (const WalRecord &rec : n->history().records()) {
            switch (rec.kind) {
            case WalRecord::Kind::Prepare:
                txnGtid[rec.txn] = rec.gtid;
                break;
            case WalRecord::Kind::Commit: {
                auto it = txnGtid.find(rec.txn);
                if (it != txnGtid.end()) {
                    ++gtids[it->second].committed;
                    decided.insert(rec.txn);
                }
                break;
            }
            case WalRecord::Kind::Abort: {
                auto it = txnGtid.find(rec.txn);
                if (it != txnGtid.end()) {
                    ++gtids[it->second].aborted;
                    decided.insert(rec.txn);
                }
                break;
            }
            default:
                break;
            }
        }
        for (const auto &[txn, gtid] : txnGtid)
            if (!decided.count(txn))
                ++gtids[gtid].unresolved;
    }
    for (const auto &[gtid, st] : gtids) {
        if (st.committed > 0 && st.aborted > 0)
            r.audit.add("atomicity",
                        "gtid " + std::to_string(gtid) +
                            " committed on " +
                            std::to_string(st.committed) +
                            " node(s) but aborted on " +
                            std::to_string(st.aborted));
        if (st.unresolved > 0)
            r.audit.add("atomicity",
                        "gtid " + std::to_string(gtid) + " left " +
                            std::to_string(st.unresolved) +
                            " branch(es) prepared but unresolved");
    }

    // Conservation: transfers move balance between accounts; the
    // fleet-wide sum must equal its initial value exactly.
    int64_t total = 0;
    for (auto &n : nodes_) {
        const auto &col = n->db().table("acct").data->column("bal");
        for (int64_t k = 0; k < cfg_.rowsPerShard; ++k)
            total += col.getInt(RowId(k));
    }
    const int64_t expect = router_.totalKeys() * kInitialBalance;
    if (total != expect)
        r.audit.add("conservation",
                    "fleet balance sum " + std::to_string(total) +
                        " != initial " + std::to_string(expect));
}

std::vector<uint64_t>
Fleet::nodeDigests()
{
    std::vector<uint64_t> out;
    for (auto &n : nodes_)
        out.push_back(foldDigest(verify::databaseDigest(n->db())));
    return out;
}

} // namespace cluster
} // namespace dbsens
