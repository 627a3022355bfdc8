/**
 * @file
 * Fleet-level configuration and shard routing for the multi-node
 * cluster simulator (DESIGN.md Section 15).
 *
 * A cluster is N single-box SimRun topologies sharing one
 * deterministic EventLoop: each node owns a shard of the key space, a
 * WAL journal + history that survive its crashes, and an EventLoop
 * domain per incarnation so a node crash kills exactly that node's
 * pending work. Cross-shard transactions run presumed-abort 2PC over
 * a seeded network model (cluster/net.h).
 */

#ifndef DBSENS_CLUSTER_CLUSTER_H
#define DBSENS_CLUSTER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_time.h"

namespace dbsens {
namespace cluster {

/** Seeded message-level network behaviour between distinct nodes. */
struct NetConfig
{
    double lossRate = 0; ///< P(message silently dropped)
    double dupRate = 0;  ///< P(message delivered twice)
};

/** Knobs for one fleet experiment. */
struct ClusterConfig
{
    int nodes = 3;
    uint64_t seed = 1;
    /** Keys per shard; key k lives on node k / rowsPerShard. */
    int rowsPerShard = 2000;
    int tenants = 4;

    // ----- open-loop arrival processes (per tenant)
    /** Mean arrivals per tenant per millisecond (diurnal midpoint). */
    double arrivalsPerMs = 3.0;

    // ----- chaos regime
    /** Expected crashes per node over the arrival window. */
    double crashesPerNode = 0;
    NetConfig net;
    /** Per-node transient-fault rates (per-I/O draws, derived-seeded
     * per node so fleets scale without cross-talk). */
    double ssdErrorRate = 0;
    double ssdStallRate = 0;

    // ----- protocol timing
    SimDuration lockTimeout = milliseconds(2);

    /**
     * Per-shard sketch telemetry (src/stats_sketch): the fleet keeps
     * one key-heat partition per shard (fed at the router) plus
     * per-node latency quantile sketches, merges them at episode end,
     * and audits merge-equals-concatenation, partition-split
     * exactness, and the KLL rank bound against the exact latency
     * samples. Off (default) builds no sketches — byte-identical
     * episodes.
     */
    bool sketch = false;

    // ----- experiment window
    /** Arrival window: transactions are submitted in [0, window). */
    SimDuration window = milliseconds(60);
    /** Heal-and-drain tail after the window: the network becomes
     * lossless, every down node restarts, and retries/inquiries
     * resolve all in-doubt work before the audits run. */
    SimDuration drain = milliseconds(40);
};

/** One shard's catalog entry: the key range a node serves. */
struct ShardCatalog
{
    int node = 0;
    int64_t keyLo = 0; ///< inclusive
    int64_t keyHi = 0; ///< exclusive
    std::string table = "acct";
};

/** Range-sharded router over the fleet's per-shard catalogs. */
class ShardRouter
{
  public:
    ShardRouter(int nodes, int rows_per_shard)
    {
        for (int n = 0; n < nodes; ++n)
            catalogs_.push_back(
                ShardCatalog{n, int64_t(n) * rows_per_shard,
                             int64_t(n + 1) * rows_per_shard, "acct"});
    }

    int64_t
    totalKeys() const
    {
        return catalogs_.empty() ? 0 : catalogs_.back().keyHi;
    }

    const ShardCatalog &catalog(int shard) const
    {
        return catalogs_[size_t(shard)];
    }

    /** Node owning `key`. */
    int
    route(int64_t key) const
    {
        const int64_t span = catalogs_[0].keyHi - catalogs_[0].keyLo;
        return int(key / span);
    }

  private:
    std::vector<ShardCatalog> catalogs_;
};

/**
 * Global transaction ids encode the coordinator node so a recovered
 * participant knows whom to ask about an in-doubt branch.
 */
inline uint64_t
makeGtid(int coord_node, uint64_t seq)
{
    return (uint64_t(coord_node) + 1) << 40 | seq;
}

inline int
gtidCoordinator(uint64_t gtid)
{
    return int(gtid >> 40) - 1;
}

} // namespace cluster
} // namespace dbsens

#endif // DBSENS_CLUSTER_CLUSTER_H
