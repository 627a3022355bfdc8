/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: standard
 * run configurations and formatting (the OLTP workload factory,
 * makeOltpWorkload, comes with the workload headers). Each bench
 * prints the paper's anchor numbers next to the measured ones so the
 * shape comparison is one `diff` away (see EXPERIMENTS.md).
 */

#ifndef DBSENS_BENCH_BENCH_COMMON_H
#define DBSENS_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/digest.h"
#include "core/json.h"
#include "core/table_printer.h"
#include "core/trace.h"
#include "harness/oltp_runner.h"
#include "harness/tpch_driver.h"
#include "workloads/asdb/asdb.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace bench {

/** Paper scale factors per workload (Table 2). */
inline const std::vector<int> kAsdbSfs = {2000, 6000};
inline const std::vector<int> kTpceSfs = {5000, 15000};
inline const std::vector<int> kHtapSfs = {5000, 15000};
inline const std::vector<int> kTpchSfs = {10, 30, 100, 300};

/** Paper core-allocation ladder (Figure 2 x-axis). */
inline const std::vector<int> kCoreLadder = {1, 2, 4, 8, 16, 32};

/** Paper CAT allocations, MB across both sockets (Figure 2). */
inline std::vector<int>
llcLadder()
{
    std::vector<int> v;
    for (int mb = 2; mb <= 40; mb += 2)
        v.push_back(mb);
    return v;
}

/** Standard OLTP sweep-point configuration. */
inline RunConfig
oltpConfig()
{
    RunConfig cfg;
    cfg.duration = milliseconds(160);
    cfg.warmup = milliseconds(50);
    cfg.sampleInterval = milliseconds(2);
    return cfg;
}

/** Standard TPC-H throughput configuration (1 paper hour). */
inline RunConfig
tpchConfig()
{
    RunConfig cfg;
    cfg.duration = fromSeconds(3600.0 / double(calib::kScaleK));
    return cfg;
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

// --------------------------------------------------- JSON run reports

/** Config knobs as report JSON. */
inline Json
toJson(const RunConfig &cfg)
{
    Json j = Json::object();
    j["cores"] = Json(cfg.cores);
    j["llc_mb"] = Json(cfg.llcMb);
    j["maxdop"] = Json(cfg.maxdop);
    j["grant_fraction"] = Json(cfg.grantFraction);
    j["ssd_read_limit_bps"] = Json(cfg.ssdReadLimitBps);
    j["ssd_write_limit_bps"] = Json(cfg.ssdWriteLimitBps);
    j["duration_ms"] = Json(double(cfg.duration) / 1e6);
    j["warmup_ms"] = Json(double(cfg.warmup) / 1e6);
    j["sample_interval_ms"] = Json(double(cfg.sampleInterval) / 1e6);
    j["seed"] = Json(cfg.seed);
    j["lock_timeout_ms"] = Json(double(cfg.lockTimeout) / 1e6);
    j["txn_retry_limit"] = Json(cfg.txnRetryLimit);
    j["deadlock_policy"] =
        Json(cfg.deadlockPolicy == DeadlockPolicy::Detector
                 ? "detector"
                 : "timeout");
    j["fault_enabled"] = Json(cfg.fault.enabled);
    j["resil_enabled"] = Json(cfg.resil.enabled);
    j["sketch_enabled"] = Json(cfg.sketch.enabled);
    j["tune_enabled"] = Json(cfg.tune.enabled);
    j["tune_policy"] = Json(cfg.tune.enabled
                                ? tunePolicyName(cfg.tune.policy)
                                : "off");
    return j;
}

/** One tenant's resource share (the `tune.tN.*` family). */
inline Json
toJson(const TenantShare &s)
{
    Json j = Json::object();
    j["cores"] = Json(s.cores);
    j["llc_mb"] = Json(s.llcMb);
    j["maxdop"] = Json(s.maxdop);
    j["grant_mb"] = Json(double(s.grantBytes >> 20));
    return j;
}

/** Autopilot summary counters and final knob state. */
inline Json
toJson(const TuneResult &r)
{
    Json j = Json::object();
    j["enabled"] = Json(r.enabled);
    j["policy"] = Json(r.policy);
    j["epochs"] = Json(r.epochs);
    j["probes"] = Json(r.probes);
    j["shifts"] = Json(r.shifts);
    j["rollbacks"] = Json(r.rollbacks);
    j["freezes"] = Json(r.freezes);
    j["score"] = Json(r.score);
    // Hex string: a 64-bit digest does not survive the double-backed
    // JSON number representation.
    j["trajectory_digest"] = Json(digestHex(r.trajectoryDigest));
    Json tenants = Json::array();
    for (int t = 0; t < kNumTenants; ++t)
        tenants.push(toJson(r.finalState.tenant[t]));
    j["final_state"] = std::move(tenants);
    Json probes = Json::array();
    for (const TuneProbeDelta &p : r.probeDeltas) {
        Json e = Json::object();
        e["move"] = Json(p.move.name());
        e["delta"] = Json(p.delta);
        Json rates = Json::array();
        for (int t = 0; t < kNumTenants; ++t)
            rates.push(Json(p.rateDelta[t]));
        e["rate_delta"] = std::move(rates);
        e["measured"] = Json(p.measured);
        probes.push(std::move(e));
    }
    j["probe"] = std::move(probes);
    return j;
}

/** Resilience-controller summary (the `resil.*` family). */
inline Json
toJson(const resil::ResilResult &r)
{
    Json j = Json::object();
    j["enabled"] = Json(r.enabled);
    j["ticks"] = Json(r.ticks);
    j["incidents"] = Json(r.incidents);
    j["incident_ms"] = Json(double(r.incidentNs) / 1e6);
    j["escalations"] = Json(r.escalations);
    j["deescalations"] = Json(r.deescalations);
    j["max_rung"] = Json(r.maxRung);
    j["freezes"] = Json(r.freezes);
    j["oltp_admitted"] = Json(r.admitted[0]);
    j["olap_admitted"] = Json(r.admitted[1]);
    j["oltp_admit_sheds"] = Json(r.admitSheds[0]);
    j["olap_admit_sheds"] = Json(r.admitSheds[1]);
    // Hex string: a 64-bit digest does not survive the double-backed
    // JSON number representation.
    j["incident_digest"] = Json(digestHex(r.incidentDigest));
    Json eps = Json::array();
    for (const resil::IncidentEvent &e : r.episodes) {
        Json o = Json::object();
        o["id"] = Json(e.id);
        o["start_ms"] = Json(double(e.start) / 1e6);
        o["end_ms"] = Json(e.end > 0 ? double(e.end) / 1e6 : -1.0);
        o["peak_pressure"] = Json(e.peakPressure);
        o["causes"] = Json(uint64_t(e.causes));
        eps.push(std::move(o));
    }
    j["episodes"] = std::move(eps);
    Json trans = Json::array();
    for (const resil::LadderTransition &t : r.transitions) {
        Json o = Json::object();
        o["at_ms"] = Json(double(t.at) / 1e6);
        o["from"] = Json(t.from);
        o["to"] = Json(t.to);
        trans.push(std::move(o));
    }
    j["transitions"] = std::move(trans);
    return j;
}

/** Sketch-hub summary (the `sketch.*` family). */
inline Json
toJson(const sketch::SketchResult &r)
{
    Json j = Json::object();
    j["enabled"] = Json(r.enabled);
    j["cms_width"] = Json(uint64_t(r.cmsWidth));
    j["cms_depth"] = Json(uint64_t(r.cmsDepth));
    j["cms_eps"] = Json(r.cmsEps);
    j["kll_k"] = Json(uint64_t(r.kllK));
    j["resizes"] = Json(r.resizes);
    j["columns"] = Json(r.columns);
    j["row_accesses"] = Json(r.rowAccesses);
    j["page_accesses"] = Json(r.pageAccesses);
    j["hot_hits"] = Json(r.hotHits);
    j["bytes"] = Json(r.bytes);
    j["occupancy"] = Json(r.occupancy);
    for (int t = 0; t < 2; ++t) {
        const std::string p = "t" + std::to_string(t) + "_";
        j[p + "lat_count"] = Json(r.latencyCount[t]);
        j[p + "lat_p50_ms"] = Json(r.latP50Ms[t]);
        j[p + "lat_p95_ms"] = Json(r.latP95Ms[t]);
        j[p + "lat_p99_ms"] = Json(r.latP99Ms[t]);
    }
    // Hex string: a 64-bit digest does not survive the double-backed
    // JSON number representation.
    j["digest"] = Json(digestHex(r.digest));
    return j;
}

/** Fault/recovery counters as report JSON (the `fault.*` family). */
inline Json
toJson(const FaultCounters &c)
{
    Json j = Json::object();
    j["injected"] = Json(c.injected);
    j["ssd_errors"] = Json(c.ssdErrors);
    j["ssd_stalls"] = Json(c.ssdStalls);
    j["ssd_retries"] = Json(c.ssdRetries);
    j["ssd_recovered"] = Json(c.ssdRecovered);
    j["ssd_exhausted"] = Json(c.ssdExhausted);
    j["torn_pages"] = Json(c.tornPages);
    j["page_rereads"] = Json(c.pageRereads);
    j["page_recovered"] = Json(c.pageRecovered);
    j["brownouts"] = Json(c.brownouts);
    j["cores_offlined"] = Json(c.coresOfflined);
    j["llc_revoked_mb"] = Json(c.llcRevokedMb);
    j["grant_sheds"] = Json(c.grantSheds);
    j["crashes"] = Json(c.crashes);
    j["checkpoints"] = Json(c.checkpoints);
    j["redo_records"] = Json(c.redoRecords);
    j["undo_records"] = Json(c.undoRecords);
    j["corruptions"] = Json(c.corruptions);
    return j;
}

/** Sampled series as mean + percentiles. */
inline Json
toJson(const Distribution &d)
{
    Json j = Json::object();
    j["count"] = Json(uint64_t(d.count()));
    j["mean"] = Json(d.mean());
    j["p10"] = Json(d.quantile(0.1));
    j["p25"] = Json(d.quantile(0.25));
    j["p50"] = Json(d.quantile(0.5));
    j["p75"] = Json(d.quantile(0.75));
    j["p90"] = Json(d.quantile(0.9));
    j["p99"] = Json(d.quantile(0.99));
    j["max"] = Json(d.quantile(1.0));
    return j;
}

/** Wait breakdown by class, in ms (matches the printed tables). */
inline Json
toJson(const WaitStats &w)
{
    Json j = Json::object();
    for (size_t i = 0; i < size_t(WaitClass::kCount); ++i) {
        const auto c = WaitClass(i);
        Json e = Json::object();
        e["total_ms"] = Json(double(w.totalNs(c)) / 1e6);
        e["count"] = Json(w.count(c));
        j[waitClassName(c)] = std::move(e);
    }
    j["contention_ms"] = Json(double(w.contentionNs()) / 1e6);
    return j;
}

/** One OLTP run's reduced metrics. */
inline Json
toJson(const OltpRunResult &r)
{
    Json j = Json::object();
    j["tps"] = Json(r.tps);
    j["qps"] = Json(r.qps);
    j["aborts_per_s"] = Json(r.aborts);
    j["retries_per_s"] = Json(r.retries);
    j["giveups_per_s"] = Json(r.giveups);
    j["mpki"] = Json(r.mpki);
    j["avg_ssd_read_bps"] = Json(r.avgSsdReadBps);
    j["avg_ssd_write_bps"] = Json(r.avgSsdWriteBps);
    j["avg_dram_bps"] = Json(r.avgDramBps);
    j["lock_timeouts"] = Json(r.lockTimeouts);
    j["deadlock_aborts"] = Json(r.deadlockAborts);
    j["queries_shed"] = Json(r.queriesShed);
    j["queries_shed_timeout"] = Json(r.queriesShedTimeout);
    j["queries_shed_admission"] = Json(r.queriesShedAdmission);
    j["crashes"] = Json(r.crashes);
    j["recovery_ms"] = Json(r.recoveryMs);
    j["olap_useful_per_s"] = Json(r.olapUsefulPerSec);
    j["fault"] = toJson(r.fault);
    j["tune"] = toJson(r.tune);
    j["resil"] = toJson(r.resil);
    j["sketch"] = toJson(r.sketch);
    j["waits"] = toJson(r.waits);
    if (r.attribution.enabled)
        j["obs"] = r.attribution.toJson();
    Json series = Json::object();
    series["ssd_read_Bps"] = toJson(r.ssdRead);
    series["ssd_write_Bps"] = toJson(r.ssdWrite);
    series["dram_Bps"] = toJson(r.dram);
    j["series"] = std::move(series);
    return j;
}

/** One TPC-H throughput run's reduced metrics. */
inline Json
toJson(const TpchRunResult &r)
{
    Json j = Json::object();
    j["qps"] = Json(r.qps);
    j["queries_shed"] = Json(r.queriesShed);
    j["queries_shed_timeout"] = Json(r.queriesShedTimeout);
    j["queries_shed_admission"] = Json(r.queriesShedAdmission);
    j["mpki"] = Json(r.mpki);
    j["avg_ssd_read_bps"] = Json(r.avgSsdReadBps);
    j["avg_ssd_write_bps"] = Json(r.avgSsdWriteBps);
    j["avg_dram_bps"] = Json(r.avgDramBps);
    Json series = Json::object();
    series["ssd_read_Bps"] = toJson(r.ssdRead);
    series["ssd_write_Bps"] = toJson(r.ssdWrite);
    series["dram_Bps"] = toJson(r.dram);
    j["series"] = std::move(series);
    return j;
}

/** Per-query profile summary (per-operator feature vector). */
inline Json
toJson(const QueryProfile &p)
{
    Json j = Json::object();
    j["name"] = Json(p.name);
    j["result_rows"] = Json(p.resultRows);
    j["total_instructions"] = Json(p.totalInstructions());
    j["total_read_bytes"] = Json(p.totalReadBytes());
    j["total_mem_required"] = Json(p.totalMemRequired());
    Json ops = Json::array();
    for (const auto &op : p.ops) {
        Json o = Json::object();
        o["label"] = Json(op.label);
        o["instructions"] = Json(op.instructions);
        o["cache_touches"] = Json(op.cacheTouches);
        o["io_read_bytes"] = Json(op.ioReadBytes);
        o["io_write_bytes"] = Json(op.ioWriteBytes);
        o["rows_in"] = Json(op.rowsIn);
        o["rows_out"] = Json(op.rowsOut);
        o["exchange_rows"] = Json(op.exchangeRows);
        o["mem_required"] = Json(op.memRequired);
        o["parallelizable"] = Json(op.parallelizable);
        ops.push(std::move(o));
    }
    j["operators"] = std::move(ops);
    return j;
}

/**
 * Per-binary harness shared by every bench: parses the command line
 * (`--json <path>` run report, `--trace <path>` Chrome trace-event
 * JSON, and `--small` where the bench declares a reduced CI scale),
 * builds the report the bench records into, and in finish() writes
 * the requested files and turns the verdict into the exit code. The
 * human tables are always printed.
 */
class BenchContext
{
  public:
    /**
     * `has_small` declares a reduced `--small` scale: the flag is
     * accepted and `config.small` is recorded. Other benches reject
     * `--small` like any unknown flag.
     */
    BenchContext(int argc, char **argv, const std::string &bench_name,
                 bool has_small = false)
        : name_(bench_name)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                jsonPath_ = argv[++i];
            } else if (arg == "--trace" && i + 1 < argc) {
                tracePath_ = argv[++i];
            } else if (arg == "--small" && has_small) {
                small_ = true;
            } else if (arg == "--help" || arg == "-h") {
                std::printf("usage: %s %s[--json <report.json>] "
                            "[--trace <trace.json>]\n",
                            bench_name.c_str(),
                            has_small ? "[--small] " : "");
                std::exit(0);
            } else {
                fatal(bench_name + ": unknown argument '" + arg +
                      "' (try --help)");
            }
        }
        report_["bench"] = Json(name_);
        report_["schema_version"] = Json(1);
        report_["config"] = Json::object();
        report_["results"] = Json::object();
        if (has_small)
            config()["small"] = Json(small_);
        if (!tracePath_.empty()) {
            recorder_ = std::make_unique<TraceRecorder>();
            TraceRecorder::setActive(recorder_.get());
        }
    }

    ~BenchContext() { finish(); }

    BenchContext(const BenchContext &) = delete;
    BenchContext &operator=(const BenchContext &) = delete;

    /** True when `--small` was given (only a declaring bench sees it). */
    bool small() const { return small_; }

    /** Config knobs section (shared sweep settings etc.). */
    Json &config() { return report_["config"]; }

    /** Results section; benches insert named entries. */
    Json &results() { return report_["results"]; }

    /**
     * Record `results.verdict`: `details` plus its `pass` flag. A
     * failed verdict makes finish() return non-zero.
     */
    void
    verdict(bool pass, Json details)
    {
        details["pass"] = Json(pass);
        results()["verdict"] = std::move(details);
        pass_ = pass;
    }

    /**
     * Write the report and trace when requested and return the exit
     * code: non-zero on a failed verdict or a file that cannot be
     * written. Idempotent; the destructor calls it.
     */
    int
    finish()
    {
        if (finished_)
            return exitCode_;
        finished_ = true;
        if (recorder_) {
            TraceRecorder::setActive(nullptr);
            if (!recorder_->writeFile(tracePath_)) {
                warn(name_ + ": failed to write trace to " + tracePath_);
                exitCode_ = 1;
            } else {
                note("trace written to " + tracePath_ + " (" +
                     std::to_string(recorder_->eventCount()) +
                     " events; open in Perfetto)");
            }
        }
        if (!jsonPath_.empty()) {
            if (!report_.writeFile(jsonPath_, 2)) {
                warn(name_ + ": failed to write report to " + jsonPath_);
                exitCode_ = 1;
            } else {
                note("report written to " + jsonPath_);
            }
        }
        if (!pass_) {
            warn(name_ + ": verdict FAIL");
            exitCode_ = 1;
        }
        return exitCode_;
    }

  private:
    std::string name_;
    std::string jsonPath_;
    std::string tracePath_;
    bool small_ = false;
    bool pass_ = true;
    int exitCode_ = 0;
    Json report_ = Json::object();
    std::unique_ptr<TraceRecorder> recorder_;
    bool finished_ = false;
};

} // namespace bench
} // namespace dbsens

#endif // DBSENS_BENCH_BENCH_COMMON_H
