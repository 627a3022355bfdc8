#include "chaos/chaos.h"

#include <algorithm>
#include <cstring>

#include "cluster/fleet.h"
#include "core/digest.h"
#include "core/random.h"

namespace dbsens {
namespace verify {

namespace {

const char *
kindName(FaultEvent::Kind k)
{
    switch (k) {
      case FaultEvent::Kind::BrownoutStart: return "brownout_start";
      case FaultEvent::Kind::BrownoutEnd: return "brownout_end";
      case FaultEvent::Kind::OfflineCores: return "offline_cores";
      case FaultEvent::Kind::RevokeLlcMb: return "revoke_llc_mb";
      case FaultEvent::Kind::Crash: return "crash";
      case FaultEvent::Kind::CorruptRow: return "corrupt_row";
    }
    return "?";
}

bool
kindFromName(const std::string &s, FaultEvent::Kind *out)
{
    if (s == "brownout_start") *out = FaultEvent::Kind::BrownoutStart;
    else if (s == "brownout_end") *out = FaultEvent::Kind::BrownoutEnd;
    else if (s == "offline_cores") *out = FaultEvent::Kind::OfflineCores;
    else if (s == "revoke_llc_mb") *out = FaultEvent::Kind::RevokeLlcMb;
    else if (s == "crash") *out = FaultEvent::Kind::Crash;
    else if (s == "corrupt_row") *out = FaultEvent::Kind::CorruptRow;
    else return false;
    return true;
}

/**
 * Cluster phase of a cluster-mode episode: boots a small sharded
 * fleet seeded from the episode, runs cross-shard 2PC arrivals under
 * `clusterCrashes` crash/restart cycles per node plus a lossy
 * network, appends any atomicity / conservation / oracle violations
 * (and unresolved in-doubt branches) to `rep`, and returns the
 * per-node state digests.
 */
std::vector<uint64_t>
runClusterPhase(const ChaosEpisode &ep, AuditReport &rep)
{
    cluster::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.rowsPerShard = 400;
    cfg.tenants = 2;
    cfg.arrivalsPerMs = 2.0;
    cfg.window = milliseconds(20);
    cfg.drain = milliseconds(30);
    // Both episode seeds shape the fleet so distinct episodes explore
    // distinct interleavings even at equal database seeds.
    cfg.seed = SplitMix64(ep.seed ^ (ep.faultSeed << 1)).next() | 1;
    cfg.crashesPerNode = double(ep.clusterCrashes);
    if (ep.clusterCrashes > 0) {
        cfg.net.lossRate = 0.02;
        cfg.net.dupRate = 0.02;
    }

    cluster::Fleet fleet(cfg);
    cluster::FleetResult r = fleet.run();

    rep.merge(r.audit);
    if (r.inDoubtUnresolved > 0)
        rep.add("fleet_resolution",
                std::to_string(r.inDoubtUnresolved) +
                    " in-doubt branch(es) unresolved after drain");

    return fleet.nodeDigests();
}

/** Deterministic fingerprint of the final state + progress counters. */
std::string
stateDigest(Database &db, const OltpRunResult &r,
            const std::vector<uint64_t> &node_digests)
{
    uint64_t h = kFnvBasis;
    for (const auto &[name, d] : databaseDigest(db)) {
        h = fnv1a(name.data(), name.size(), h);
        h = fnv1aWord(h, d);
    }
    h = fnv1aWord(h, r.lockTimeouts);
    h = fnv1aWord(h, r.deadlockAborts);
    h = fnv1aWord(h, r.crashes);
    h = fnv1aWord(h, r.txnsRetried);
    h = fnv1aWord(h, r.txnsGivenUp);
    h = fnv1aWord(h, r.fault.injected);
    // Fold the controller trajectories only when their subsystem ran:
    // legacy episodes (no tune/resil keys) keep their digests.
    if (r.tune.enabled)
        h = fnv1aWord(h, r.tune.trajectoryDigest);
    if (r.resil.enabled)
        h = fnv1aWord(h, r.resil.incidentDigest);
    // Cluster episodes fold every node's fleet digest in node order;
    // non-cluster episodes pass an empty vector and keep their
    // digests.
    for (uint64_t d : node_digests)
        h = fnv1aWord(h, d);
    uint64_t bits;
    std::memcpy(&bits, &r.tps, sizeof bits);
    h = fnv1aWord(h, bits);
    std::memcpy(&bits, &r.aborts, sizeof bits);
    h = fnv1aWord(h, bits);
    return digestHex(h);
}

} // namespace

Json
ChaosEpisode::toJson() const
{
    Json j = Json::object();
    j["workload"] = Json(workload);
    j["scale_factor"] = Json(scaleFactor);
    j["seed"] = Json(seed);
    j["fault_seed"] = Json(faultSeed);
    j["duration_ns"] = Json(int64_t(duration));
    j["warmup_ns"] = Json(int64_t(warmup));
    j["lock_timeout_ns"] = Json(int64_t(lockTimeout));
    j["detector"] = Json(detector);
    j["deadlock_check_ns"] = Json(int64_t(deadlockCheckInterval));
    j["grant_timeout_ns"] = Json(int64_t(grantTimeout));
    j["tune"] = Json(tune);
    j["resil"] = Json(resil);
    j["cluster"] = Json(cluster);
    j["cluster_crashes"] = Json(clusterCrashes);
    Json sc = Json::array();
    for (const FaultEvent &ev : script) {
        Json e = Json::object();
        e["at_ns"] = Json(int64_t(ev.at));
        e["kind"] = Json(kindName(ev.kind));
        e["value"] = Json(ev.value);
        sc.push(std::move(e));
    }
    j["script"] = std::move(sc);
    return j;
}

bool
ChaosEpisode::fromJson(const Json &j, ChaosEpisode *out,
                       std::string *err)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    if (!j.isObject())
        return fail("episode is not an object");
    for (const char *key :
         {"workload", "scale_factor", "seed", "fault_seed",
          "duration_ns", "warmup_ns", "lock_timeout_ns", "detector",
          "deadlock_check_ns", "grant_timeout_ns", "script"})
        if (!j.contains(key))
            return fail(std::string("episode missing key '") + key +
                        "'");
    ChaosEpisode ep;
    ep.workload = j.at("workload").asString();
    if (!makeOltpWorkload(ep.workload, 100))
        return fail("unknown workload '" + ep.workload + "'");
    ep.scaleFactor = int(j.at("scale_factor").asInt());
    ep.seed = uint64_t(j.at("seed").asInt());
    ep.faultSeed = uint64_t(j.at("fault_seed").asInt());
    ep.duration = j.at("duration_ns").asInt();
    ep.warmup = j.at("warmup_ns").asInt();
    ep.lockTimeout = j.at("lock_timeout_ns").asInt();
    ep.detector = j.at("detector").asBool();
    ep.deadlockCheckInterval = j.at("deadlock_check_ns").asInt();
    ep.grantTimeout = j.at("grant_timeout_ns").asInt();
    // Optional keys (newer than schema_version 1 repro files): absent
    // means disabled, so old repros replay bit-identically.
    ep.tune = j.contains("tune") && j.at("tune").asBool();
    ep.resil = j.contains("resil") && j.at("resil").asBool();
    ep.cluster = j.contains("cluster") && j.at("cluster").asBool();
    ep.clusterCrashes = j.contains("cluster_crashes")
                            ? int(j.at("cluster_crashes").asInt())
                            : 0;
    if (ep.scaleFactor <= 0 || ep.duration <= 0 || ep.warmup <= 0 ||
        ep.lockTimeout <= 0 || ep.deadlockCheckInterval <= 0)
        return fail("episode has a non-positive knob");
    if (ep.clusterCrashes < 0)
        return fail("episode has a negative cluster crash count");
    ep.script.clear();
    const Json &sc = j.at("script");
    if (!sc.isArray())
        return fail("script is not an array");
    for (const Json &e : sc.items()) {
        FaultEvent ev;
        if (!e.isObject() || !e.contains("at_ns") ||
            !e.contains("kind") || !e.contains("value"))
            return fail("malformed script event");
        ev.at = e.at("at_ns").asInt();
        if (!kindFromName(e.at("kind").asString(), &ev.kind))
            return fail("unknown fault kind '" +
                        e.at("kind").asString() + "'");
        ev.value = e.at("value").asDouble();
        ep.script.push_back(ev);
    }
    *out = ep;
    return true;
}

ChaosEpisode
randomEpisode(uint64_t seed, bool small)
{
    Rng rng(SplitMix64(seed ^ 0xC4A05ULL).next());
    ChaosEpisode ep;
    const char *workloads[] = {"TPC-E", "ASDB", "HTAP"};
    ep.workload = workloads[rng.uniform(3)];
    ep.scaleFactor = small ? int(100 + rng.uniform(3) * 100)
                           : int(500 + rng.uniform(2) * 500);
    // Seeds stay within 32 bits: episode JSON stores numbers as
    // doubles, and a full 64-bit seed would lose its low bits in the
    // round-trip, breaking bit-identical replay.
    ep.seed = (SplitMix64(seed ^ 0xDB5EEDULL).next() & 0xffffffffULL) | 1;
    ep.faultSeed =
        (SplitMix64(seed ^ 0xFA117ULL).next() & 0xffffffffULL) | 1;
    ep.duration = milliseconds(int64_t(small ? 24 + rng.uniform(16)
                                             : 60 + rng.uniform(60)));
    ep.warmup = milliseconds(small ? 8 : 20);
    ep.lockTimeout = milliseconds(int64_t(2 + rng.uniform(6)));
    ep.detector = rng.chance(0.6);
    ep.deadlockCheckInterval = microseconds(int64_t(
        200 + rng.uniform(800)));
    ep.grantTimeout =
        ep.workload == "HTAP" && rng.chance(0.5) ? milliseconds(2) : 0;
    // Tuning-plus-faults mode: the autopilot probes (and freezes) and
    // the resilience ladder climbs while the script fires. Drawn
    // before the script so the draws stay position-stable.
    ep.tune = rng.chance(0.35);
    ep.resil = rng.chance(0.35);
    // Cluster draws come from their own stream so every draw above —
    // and the script draws below — stays position-stable: the same
    // seed still yields the same single-node episode it did before
    // cluster mode existed.
    Rng crng(SplitMix64(seed ^ 0xC1B57E4ULL).next());
    ep.cluster = crng.chance(small ? 0.25 : 0.35);
    ep.clusterCrashes = ep.cluster ? int(crng.uniform(3)) : 0;

    // Randomized fault script inside the run window. At most two
    // crashes (each costs a full recovery pass), brownouts come in
    // start/end pairs, and degradations stay survivable.
    const SimTime lo = ep.warmup / 2;
    const SimTime hi = ep.warmup + ep.duration;
    auto when = [&] {
        return lo + SimTime(rng.uniform(uint64_t(hi - lo)));
    };
    int crashes = 0;
    const int events = int(rng.uniform(5));
    for (int i = 0; i < events; ++i) {
        switch (rng.uniform(4)) {
          case 0: {
            const SimTime t = when();
            ep.script.push_back(
                {t, FaultEvent::Kind::BrownoutStart,
                 0.15 + 0.5 * rng.uniformReal()});
            ep.script.push_back(
                {t + milliseconds(int64_t(1 + rng.uniform(6))),
                 FaultEvent::Kind::BrownoutEnd, 0});
            break;
          }
          case 1:
            ep.script.push_back({when(),
                                 FaultEvent::Kind::OfflineCores,
                                 double(1 + rng.uniform(24))});
            break;
          case 2:
            ep.script.push_back({when(),
                                 FaultEvent::Kind::RevokeLlcMb,
                                 double(2 + rng.uniform(28))});
            break;
          case 3:
            if (crashes < 2) {
                ++crashes;
                // Crash inside the measured window, away from the
                // very end so the resumed phase does real work.
                const SimTime t =
                    ep.warmup +
                    SimTime(rng.uniform(uint64_t(ep.duration * 3 / 4)));
                ep.script.push_back({t, FaultEvent::Kind::Crash, 0});
            }
            break;
        }
    }
    std::sort(ep.script.begin(), ep.script.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  return a.at < b.at ||
                         (a.at == b.at && int(a.kind) < int(b.kind));
              });
    return ep;
}

EpisodeOutcome
runEpisode(const ChaosEpisode &ep)
{
    std::unique_ptr<OltpWorkload> wl =
        makeOltpWorkload(ep.workload, ep.scaleFactor);
    std::unique_ptr<Database> db = wl->generate(ep.seed);

    WalHistory history;
    AuditReport rep;
    RunConfig cfg;
    cfg.seed = ep.seed;
    cfg.duration = ep.duration;
    cfg.warmup = ep.warmup;
    cfg.sampleInterval = milliseconds(2);
    cfg.lockTimeout = ep.lockTimeout;
    cfg.txnRetryLimit = 3;
    cfg.deadlockPolicy = ep.detector ? DeadlockPolicy::Detector
                                     : DeadlockPolicy::TimeoutOnly;
    cfg.deadlockCheckInterval = ep.deadlockCheckInterval;
    cfg.history = &history;
    cfg.fault.enabled = true;
    cfg.fault.seed = ep.faultSeed;
    cfg.fault.grantTimeout = ep.grantTimeout;
    cfg.fault.script = ep.script;
    if (ep.tune) {
        cfg.tune.enabled = true;
        // Episodes are tens of ms: shrink the epoch so the climber
        // actually probes.
        cfg.tune.epoch = milliseconds(4);
    }
    if (ep.resil) {
        cfg.resil.enabled = true;
        // SLO verdicts feed the incident detector. This 4 ms OLTP p99
        // ceiling is below the healthy p99 of these runs (12-22 ms),
        // so resil episodes enter an incident about 4 ms after
        // warm-up and stays in it: tuning freezes before any trial.
        cfg.obs.enabled = true;
        cfg.obs.sampleEvery = milliseconds(2);
        cfg.obs.slo[0].p99LatencyMs = 4.0;
    }
    // Online audits at the end of every phase, pre- and post-crash.
    cfg.phaseAudit = [&rep](SimRun &run, int) {
        auditLockTable(run.locks, run.activeTxnList(), rep);
        auditBufferPool(run.pool, rep);
    };

    EpisodeOutcome out;
    out.result = runOltpOn(*wl, *db, cfg);

    // Post-run: structure, index<->data cross-check, and the
    // serializability oracle against a fresh copy of the initial DB.
    auditBTrees(*db, rep);
    auditIndexes(*db, rep);
    std::unique_ptr<Database> oracle = wl->generate(ep.seed);
    replayOracle(*db, *oracle, history, rep);

    // Cluster-mode episodes append a sharded-fleet phase: cross-shard
    // 2PC under crashes and a lossy network, audited for atomicity and
    // conservation, with each node's digest folded into the episode
    // digest so replays cover the fleet state too.
    if (ep.cluster)
        out.nodeDigests = runClusterPhase(ep, rep);

    out.report = std::move(rep);
    out.stateDigest = stateDigest(*db, out.result, out.nodeDigests);
    return out;
}

ChaosEpisode
minimizeEpisode(const ChaosEpisode &failing, int *attempts)
{
    int tries = 0;
    auto stillFails = [&](const ChaosEpisode &e) {
        ++tries;
        return !runEpisode(e).ok();
    };

    ChaosEpisode best = failing;

    // ddmin over the fault script: remove chunks, halving the chunk
    // size whenever no chunk at the current granularity is removable.
    size_t chunk = best.script.empty() ? 0
                                       : (best.script.size() + 1) / 2;
    while (chunk >= 1) {
        for (size_t start = 0; start < best.script.size();) {
            ChaosEpisode trial = best;
            const size_t stop =
                std::min(start + chunk, trial.script.size());
            trial.script.erase(trial.script.begin() + long(start),
                               trial.script.begin() + long(stop));
            if (stillFails(trial))
                best = std::move(trial); // retry same offset
            else
                start = stop;
        }
        if (chunk == 1)
            break;
        chunk = (chunk + 1) / 2;
    }

    // Shrink the run window while the violation survives.
    for (int i = 0; i < 6; ++i) {
        ChaosEpisode trial = best;
        trial.duration /= 2;
        if (trial.duration < milliseconds(5))
            break;
        const SimTime window = trial.warmup + trial.duration;
        trial.script.erase(
            std::remove_if(trial.script.begin(), trial.script.end(),
                           [&](const FaultEvent &ev) {
                               return ev.at >= window;
                           }),
            trial.script.end());
        if (!stillFails(trial))
            break;
        best = std::move(trial);
    }
    for (int i = 0; i < 4; ++i) {
        ChaosEpisode trial = best;
        trial.warmup /= 2;
        // runOltpOn treats warmup == 0 as "use the default", so the
        // floor is 1 ms.
        if (trial.warmup < milliseconds(1))
            break;
        if (!stillFails(trial))
            break;
        best = std::move(trial);
    }

    if (attempts)
        *attempts = tries;
    return best;
}

Json
reproJson(const ChaosEpisode &ep, const EpisodeOutcome &outcome)
{
    Json j = Json::object();
    j["kind"] = Json("dbsens_chaos_repro");
    j["schema_version"] = Json(1);
    j["episode"] = ep.toJson();
    Json v = Json::array();
    for (const Violation &viol : outcome.report.violations) {
        Json e = Json::object();
        e["auditor"] = Json(viol.auditor);
        e["detail"] = Json(viol.detail);
        v.push(std::move(e));
    }
    j["violations"] = std::move(v);
    j["state_digest"] = Json(outcome.stateDigest);
    return j;
}

bool
replayRepro(const Json &repro, std::string *detail)
{
    auto fail = [&](const std::string &m) {
        if (detail)
            *detail = m;
        return false;
    };
    if (!repro.isObject() || !repro.contains("episode") ||
        !repro.contains("state_digest"))
        return fail("not a chaos repro file (missing episode or "
                    "state_digest)");
    ChaosEpisode ep;
    std::string err;
    if (!ChaosEpisode::fromJson(repro.at("episode"), &ep, &err))
        return fail("bad episode: " + err);
    const EpisodeOutcome out = runEpisode(ep);
    const std::string &want = repro.at("state_digest").asString();
    if (out.ok())
        return fail("episode replayed clean: the recorded violation "
                    "did not reproduce (digest " + out.stateDigest +
                    ")");
    if (out.stateDigest != want)
        return fail("violation reproduced but state digest " +
                    out.stateDigest + " != recorded " + want);
    if (detail)
        *detail = "reproduced bit-identically (digest " +
                  out.stateDigest + "): " + out.report.summary();
    return true;
}

} // namespace verify
} // namespace dbsens
