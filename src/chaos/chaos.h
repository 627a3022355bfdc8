/**
 * @file
 * Chaos harness: randomized workload x fault-schedule episodes with
 * online consistency auditing and automatic repro minimization.
 *
 * One episode = one seeded OLTP run (TPC-E / ASDB / HTAP at a small
 * scale) under a randomized FaultInjector script (crashes, brownouts,
 * core offlining, LLC revocation, grant shedding, and — as a test
 * hook — silent row corruption). After the run the auditors
 * (verify.h) check every structure and replay the committed history
 * against a single-threaded oracle. Because the simulator is fully
 * deterministic, an episode is completely described by its JSON
 * encoding: replaying it reproduces the run bit-identically, which is
 * what makes minimization meaningful — the minimizer shrinks the
 * fault script (ddmin-style) and the run length while the violation
 * still reproduces, then emits a replayable repro file.
 */

#ifndef DBSENS_CHAOS_CHAOS_H
#define DBSENS_CHAOS_CHAOS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "harness/oltp_runner.h"
#include "sim/fault.h"
#include "verify/verify.h"

namespace dbsens {
namespace verify {

/** Complete deterministic description of one chaos episode. */
struct ChaosEpisode
{
    std::string workload = "TPC-E"; ///< "TPC-E" | "ASDB" | "HTAP"
    int scaleFactor = 300;
    uint64_t seed = 1;      ///< database + session seed
    uint64_t faultSeed = 1; ///< FaultInjector stream seed
    SimDuration duration = milliseconds(40);
    SimDuration warmup = milliseconds(10);
    SimDuration lockTimeout = milliseconds(5);
    bool detector = true; ///< waits-for-graph deadlock detection
    SimDuration deadlockCheckInterval = microseconds(500);
    SimDuration grantTimeout = 0; ///< 0 = no load shedding
    /** Run the autopilot during the episode (probing under faults;
     * the resilience freeze path gets exercised when `resil` is also
     * set). Optional in the JSON encoding — absent means false, so
     * pre-existing repro files replay unchanged. */
    bool tune = false;
    /** Run the resilience controller (incident detection + ladder +
     * admission) during the episode. Optional in JSON like `tune`. */
    bool resil = false;
    /** Cluster mode: after the single-node run, a small sharded fleet
     * (cluster/fleet.h) executes cross-shard 2PC transfers under the
     * episode's seeds, its consistency audits join the report, and its
     * per-node state digests fold into the episode digest. Optional in
     * JSON like `tune` — absent means false, so pre-existing repro
     * files replay unchanged. */
    bool cluster = false;
    /** Expected crash/restart cycles per fleet node (cluster mode
     * only). Optional in JSON — absent means zero. */
    int clusterCrashes = 0;
    std::vector<FaultEvent> script;

    Json toJson() const;
    static bool fromJson(const Json &j, ChaosEpisode *out,
                         std::string *err);
};

/** Everything one episode run produced. */
struct EpisodeOutcome
{
    AuditReport report;
    OltpRunResult result;
    /** Deterministic digest of the final state + progress counters;
     * equal digests mean the episode replayed bit-identically. */
    std::string stateDigest;
    /** Per-node fleet digests (cluster episodes only; empty
     * otherwise). Folded into stateDigest in node order. */
    std::vector<uint64_t> nodeDigests;

    bool ok() const { return report.ok(); }
};

/** Draw a randomized episode from a seeded stream. */
ChaosEpisode randomEpisode(uint64_t seed, bool small);

/** Run one episode: generate, run under faults, audit, digest. */
EpisodeOutcome runEpisode(const ChaosEpisode &ep);

/**
 * Shrink a failing episode while the violation still reproduces:
 * ddmin over the fault script, then halving of the run duration and
 * warmup. Returns the smallest still-failing episode;
 * `attempts` (optional) counts the candidate runs spent.
 */
ChaosEpisode minimizeEpisode(const ChaosEpisode &failing,
                             int *attempts = nullptr);

/** Repro file: schema id, episode, violations, expected digest. */
Json reproJson(const ChaosEpisode &ep, const EpisodeOutcome &outcome);

/**
 * Replay a repro file: run its episode and check that (a) the
 * violation still fires and (b) the state digest matches the recorded
 * one bit-for-bit. Returns true when both hold; `detail` receives a
 * human-readable explanation either way.
 */
bool replayRepro(const Json &repro, std::string *detail);

} // namespace verify
} // namespace dbsens

#endif // DBSENS_CHAOS_CHAOS_H
