/**
 * @file
 * Host-time benchmark over Figure 2 sweep points (see README.md).
 *
 * One process runs one workload: a list of databases, and for each a
 * set of core-ladder and LLC-ladder points built exactly as the
 * Figure 2 sweeps in bench/sweeps.h build them. A pass generates each
 * database (set-up), runs its points back to back on one thread (a
 * closed loop of one client), and releases it. Passes repeat until
 * `--seconds` have passed, so the same work is measured several times
 * and every time is a median over passes. Between passes a fixed probe
 * measures the host's speed, and pass times are rescaled by it.
 *
 * Every point's simulated output (x, perf, MPKI) is folded into a
 * digest. A point fails when its perf is not positive and finite, when
 * its digest differs from the first pass's, or, at the default seed,
 * when it differs from the committed golden.
 *
 * With `--trace 1` the first pass runs untraced and the later passes
 * decompose each point into the public calls behind it, recording
 * host-time spans at each layer boundary; the per-layer metrics are
 * self times from those spans. The decomposed points must reproduce
 * the untraced digests.
 *
 * The last line of stdout is the JSON result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <sstream>

#include "stats_sketch/sketch.h"
#include "sweeps.h"

namespace dbsens {
namespace bench {
namespace {

// ------------------------------------------------------- workloads

enum class Axis { Cores, Llc };

/** Points of one Figure 2 panel. */
struct Panel
{
    Axis axis;
    std::vector<int> xs;
};

/** One database a pass builds, and the panels it runs on it. */
struct Group
{
    std::string db; ///< "TPC-H", or an OLTP workload name
    int sf;
    std::vector<Panel> panels;
};

struct WorkloadSpec
{
    std::string name;
    std::vector<Group> groups;
};

// Point lists keep a pass to a few seconds on a 4-core host, so a
// run measures several passes. Why each workload exists: README.md.
const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        const std::vector<Panel> oltp_panels = {
            {Axis::Cores, kCoreLadder}, {Axis::Llc, {2, 8, 20}}};
        return std::vector<WorkloadSpec>{
            {"tpch_sf10",
             {{"TPC-H", 10,
               {{Axis::Cores, kCoreLadder}, {Axis::Llc, {4, 16}}}}}},
            {"tpch_sf300",
             {{"TPC-H", 300,
               {{Axis::Cores, {4, 16}}, {Axis::Llc, {2, 20}}}}}},
            {"oltp",
             {{"ASDB", 2000, oltp_panels},
              {"ASDB", 6000, oltp_panels},
              {"TPC-E", 5000, oltp_panels},
              {"TPC-E", 15000, oltp_panels}}},
            {"htap", {{"HTAP", 5000, oltp_panels}}},
        };
    }();
    return specs;
}

/** The seed the committed golden was taken at. */
constexpr uint64_t kDefaultSeed = 1;

/** Seed 1 maps to TpchDriver's default 19920101. */
constexpr uint64_t kTpchSeedBase = 19920100;

// ------------------------------------------------------------ spans

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

/** Seconds since process start. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

struct Span
{
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
    int pass = 0;
    std::string point;
};

/**
 * In-memory host-time span recorder. Spans nest by call structure;
 * with tracing off nothing is recorded but spans are still timed.
 */
class Tracer
{
  public:
    bool on = false;
    int pass = 0;
    std::string point;
    std::vector<Span> spans;

    /** Run f inside a span called `name`; returns its seconds. */
    template <typename F>
    double
    span(const char *name, F &&f)
    {
        int id = -1;
        const double t0 = now();
        if (on) {
            id = int(spans.size());
            spans.push_back({name, t0, 0,
                             stack_.empty() ? -1 : stack_.back(), pass,
                             point});
            stack_.push_back(id);
        }
        f();
        const double t1 = now();
        if (on) {
            spans[size_t(id)].t1 = t1;
            stack_.pop_back();
        }
        return t1 - t0;
    }

  private:
    std::vector<int> stack_;
};

// ----------------------------------------------------------- points

/** Per-layer counts, read from the run at the span boundaries. */
struct Counts
{
    double events = 0, llcAccesses = 0, llcMisses = 0;
    double committed = 0, aborted = 0;
    double lockGrants = 0, lockTimeouts = 0;
    double walFlushes = 0, walBytes = 0;
    double poolHits = 0, poolMisses = 0;
    double ssdReadOps = 0, ssdWriteOps = 0;
};

struct PointOut
{
    std::string id;
    SweepPoint p;
    uint64_t digest = 0;
    double seconds = 0; ///< host time of the point
};

/** FNV-1a over (x, perf bits, MPKI bits). */
uint64_t
digestOf(const SweepPoint &p)
{
    unsigned char buf[24];
    const int64_t x = p.x;
    std::memcpy(buf, &x, 8);
    std::memcpy(buf + 8, &p.perf, 8);
    std::memcpy(buf + 16, &p.mpki, 8);
    return sketch::fnv1a(buf, sizeof buf);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * A point's config, as tpchCoreSweep / tpchCacheSweep and
 * oltpCoreSweep / oltpCacheSweep build it.
 */
RunConfig
pointConfig(bool tpch, Axis axis, int x, uint64_t seed)
{
    RunConfig cfg = tpch ? tpchConfig() : oltpConfig();
    cfg.seed = seed;
    if (axis == Axis::Cores) {
        cfg.cores = x;
        if (tpch)
            cfg.maxdop = x;
        cfg.llcMb = 40;
    } else {
        cfg.cores = 32;
        cfg.llcMb = x;
    }
    return cfg;
}

/**
 * One TPC-H point. Traced, it first resolves the miss rate and the 22
 * profiles runStreams would look up, in the order it looks them up, so
 * runStreams then only hits the driver's caches: identical output.
 */
SweepPoint
tpchPoint(TpchDriver &driver, const RunConfig &cfg, Tracer &tr)
{
    if (tr.on) {
        const int maxdop = std::min(cfg.maxdop, cfg.cores);
        tr.span("hw.llc_replay", [&] { driver.missRate(cfg.llcMb); });
        tr.span("exec.profile", [&] {
            for (int q = 1; q <= tpch::kQueryCount; ++q)
                driver.profile(q, maxdop);
        });
    }
    TpchRunResult r;
    tr.span("harness.run_streams", [&] { r = driver.runStreams(cfg, 3); });
    return {0, r.qps, r.mpki};
}

/**
 * One OLTP point. Untraced it is runOltpOn. Traced it is a copy of
 * runOltpOn's fault-free single-phase path, split at each call so the
 * layers can be timed; delete it once the program records its own
 * spans.
 */
SweepPoint
oltpPoint(OltpWorkload &wl, Database &db, RunConfig cfg, Tracer &tr,
          Counts &c)
{
    if (!tr.on) {
        const OltpRunResult r = runOltpOn(wl, db, cfg);
        return {0, r.tps, r.mpki};
    }
    if (cfg.sampleInterval == calib::kSampleIntervalNs)
        cfg.sampleInterval = kDefaultOltpInterval;
    if (cfg.warmup == 0)
        cfg.warmup = kDefaultOltpWarmup;
    std::unique_ptr<SimRun> run;
    tr.span("engine.simrun_init",
            [&] { run = std::make_unique<SimRun>(db, cfg); });
    tr.span("workloads.start_sessions",
            [&] { wl.startSessions(*run, db, cfg.seed * 7919 + 17); });
    tr.span("sim.warmup", [&] { run->completeWarmup(); });
    const uint64_t miss_base = run->feed.misses();
    tr.span("sim.measured", [&] {
        run->startSampling(1.0 / toSeconds(cfg.sampleInterval));
        run->runToCompletion();
    });

    const double committed = double(run->txnsCommitted);
    const double misses = double(run->feed.misses() - miss_base);
    const double instr = run->instructionsRetired;
    const StatsRegistry &s = run->stats;
    c.events += double(run->loop.eventsDispatched());
    c.llcAccesses += double(run->feed.accesses());
    c.llcMisses += double(run->feed.misses());
    c.committed += committed;
    c.aborted += double(run->txnsAborted);
    c.lockGrants += s.value("locks.grants");
    c.lockTimeouts += s.value("locks.timeouts");
    c.walFlushes += s.value("wal.flushes");
    c.walBytes += s.value("wal.appended_bytes");
    c.poolHits += s.value("bufferpool.hits");
    c.poolMisses += s.value("bufferpool.misses");
    c.ssdReadOps += s.value("ssd.read_ops");
    c.ssdWriteOps += s.value("ssd.write_ops");
    tr.span("engine.simrun_teardown", [&] { run.reset(); });

    const double secs = toSeconds(cfg.duration);
    const double mpki = instr > 0 ? misses * calib::kOltpAccessWeight /
                                        (instr / 1000.0)
                                  : 0.0;
    return {0, committed / secs, mpki};
}

std::string
pointId(const Group &g, Axis axis, int x)
{
    return g.db + "-" + std::to_string(g.sf) +
           (axis == Axis::Cores ? "/cores/" : "/llc/") + std::to_string(x);
}

struct Pass
{
    double setup = 0; ///< database generation / TpchDriver constructor
    double wall = 0;  ///< everything else: points and release
    bool traced = false;
    std::vector<PointOut> points;
    double probe = 0; ///< host-speed probe seconds around the pass
};

/** One pass: for each group, set up, run its points, release. */
Pass
runPass(const WorkloadSpec &w, uint64_t seed, Tracer &tr, Counts &c)
{
    Pass r;
    r.traced = tr.on;
    const double total = tr.span("pass", [&] {
        for (const Group &g : w.groups) {
            const bool tpch = g.db == "TPC-H";
            std::unique_ptr<TpchDriver> driver;
            std::unique_ptr<OltpWorkload> wl;
            std::unique_ptr<Database> db;
            r.setup += tr.span(
                tpch ? "harness.tpch_driver_init" : "workloads.generate",
                [&] {
                    if (tpch) {
                        driver = std::make_unique<TpchDriver>(
                            g.sf, kTpchSeedBase + seed);
                    } else {
                        wl = makeOltpWorkload(g.db, g.sf);
                        db = wl->generate(seed);
                    }
                });
            for (const Panel &p : g.panels)
                for (int x : p.xs) {
                    tr.point = pointId(g, p.axis, x);
                    const RunConfig cfg = pointConfig(tpch, p.axis, x, seed);
                    PointOut out{tr.point, {}, 0, 0};
                    out.seconds = tr.span("point", [&] {
                        out.p = tpch ? tpchPoint(*driver, cfg, tr)
                                     : oltpPoint(*wl, *db, cfg, tr, c);
                    });
                    out.p.x = x;
                    out.digest = digestOf(out.p);
                    r.points.push_back(std::move(out));
                }
            tr.point.clear();
            tr.span("workloads.db_release", [&] {
                driver.reset();
                db.reset();
                wl.reset();
            });
        }
    });
    r.wall = total - r.setup;
    return r;
}

// ------------------------------------------------- event-loop probe

Task<void>
probeSession(EventLoop &loop, uint64_t seed, int hops)
{
    Rng rng(seed);
    for (int i = 0; i < hops; ++i)
        co_await SimDelay(loop, SimDuration(1 + rng.uniform(1000)));
}

/**
 * Host ns per dispatched event for 100 coroutines sleeping seeded
 * delays (2M events), through EventLoop's public API only. Median of
 * three repetitions.
 */
double
eventLoopProbeNs(uint64_t seed)
{
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        EventLoop loop;
        for (int s = 0; s < 100; ++s)
            loop.spawn(probeSession(loop, seed * 1000 + uint64_t(s),
                                    20000));
        const double t0 = now();
        loop.run();
        ns.push_back((now() - t0) * 1e9 /
                     double(loop.eventsDispatched()));
    }
    std::sort(ns.begin(), ns.end());
    return ns[1];
}

// ------------------------------------------------ host-speed probe

/**
 * Fixed reference work timed between passes, one part per kind of work
 * the simulator does: a sequential read of 64 MB (scans), a dependent
 * random walk over the same 64 MB (pointer chasing), and a small
 * discrete-event loop of std::function callbacks in a binary heap. It
 * calls no dbsens code, so no change to the program moves it; what
 * moves it is the host: neighbours contending for caches, memory
 * bandwidth and cores. Passes are rescaled by it; see README.md.
 */
class HostSpeedProbe
{
  public:
    HostSpeedProbe() : next_((64u << 20) / sizeof(uint32_t))
    {
        // Sattolo's shuffle: i -> next_[i] is one cycle through all.
        Rng rng(7);
        for (size_t i = 0; i < next_.size(); ++i)
            next_[i] = uint32_t(i);
        for (size_t i = next_.size() - 1; i > 0; --i)
            std::swap(next_[i], next_[rng.uniform(i)]);
        measure();
    }

    /** Seconds: geometric mean of the three parts' times. */
    double
    measure()
    {
        double t0 = now();
        uint64_t sum = 0;
        for (uint32_t v : next_)
            sum += v;
        const double scan = now() - t0;

        t0 = now();
        uint32_t at = 0;
        for (int i = 0; i < 400000; ++i)
            at = next_[at];
        const double chase = now() - t0;

        t0 = now();
        struct Event
        {
            uint64_t time, seq;
            std::function<void()> fn;
            bool
            operator>(const Event &o) const
            {
                return time != o.time ? time > o.time : seq > o.seq;
            }
        };
        std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
        Rng rng(3);
        uint64_t clock = 0, seq = 0;
        int left = 200000;
        std::function<void()> hop = [&] {
            if (--left > 0)
                q.push({clock + 1 + rng.uniform(1000), seq++, hop});
        };
        for (int s = 0; s < 100; ++s)
            q.push({rng.uniform(1000), seq++, hop});
        while (!q.empty()) {
            const Event e = q.top();
            q.pop();
            clock = e.time;
            e.fn();
        }
        const double des = now() - t0;

        sink_ += sum + at + clock;
        return std::cbrt(scan * chase * des);
    }

  private:
    std::vector<uint32_t> next_;
    uint64_t sink_ = 0; ///< keeps the loops' results live
};

/**
 * The probe's median time on the reference host (4-vCPU Xeon VM,
 * GCC 12, Release). Times are reported as seconds at this host speed.
 */
constexpr double kRefProbeS = 0.0204;

// ---------------------------------------------------------- helpers

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

Json
metric(double value, const char *unit)
{
    Json m = Json::object();
    m["value"] = Json(value);
    m["unit"] = Json(unit);
    return m;
}

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Json();
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json j = Json::parse(ss.str(), &err);
    if (j.isNull())
        fatal("bench_e2e: cannot parse " + path + ": " + err);
    return j;
}

/** Span names, in the order the layer table prints them. */
const std::vector<std::string> kLayers = {
    "harness.tpch_driver_init", "workloads.generate",
    "hw.llc_replay",            "exec.profile",
    "harness.run_streams",      "engine.simrun_init",
    "workloads.start_sessions", "sim.warmup",
    "sim.measured",             "engine.simrun_teardown",
    "workloads.db_release",     "bench.other",
};

/** Self seconds per layer, summed over the traced passes. Container
 * spans ("pass", "point") count as bench.other. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].t1 - spans[i].t0;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.t1 - s.t0;
    std::map<std::string, double> out;
    for (const std::string &l : kLayers)
        out[l] = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const std::string &n = spans[i].name;
        out[n == "pass" || n == "point" ? "bench.other" : n] += self[i];
    }
    return out;
}

Json
chromeTrace(const std::vector<Span> &spans)
{
    Json events = Json::array();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Json e = Json::object();
        e["name"] = Json(s.name);
        e["ph"] = Json("X");
        e["ts"] = Json(s.t0 * 1e6);
        e["dur"] = Json((s.t1 - s.t0) * 1e6);
        e["pid"] = Json(1);
        e["tid"] = Json(1);
        Json args = Json::object();
        args["id"] = Json(uint64_t(i));
        args["parent"] = Json(int64_t(s.parent));
        args["pass"] = Json(s.pass);
        args["point"] = Json(s.point);
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = Json("ms");
    return doc;
}

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 20;
    bool trace = false;
    bool rebaseline = false;
    std::string golden = "bench/e2e/golden.json";
    std::string jsonPath;
    std::string spansPath;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal(std::string("bench_e2e: ") + argv[i] + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload")
            o.workload = need(i);
        else if (a == "--seed")
            o.seed = std::stoull(need(i));
        else if (a == "--seconds")
            o.seconds = std::stod(need(i));
        else if (a == "--trace")
            o.trace = need(i) != "0";
        else if (a == "--golden")
            o.golden = need(i);
        else if (a == "--json")
            o.jsonPath = need(i);
        else if (a == "--spans")
            o.spansPath = need(i);
        else if (a == "--rebaseline")
            o.rebaseline = true;
        else
            fatal("bench_e2e: unknown argument '" + a +
                  "'\nusage: bench_e2e --workload <name> [--seed N] "
                  "[--seconds S] [--trace 0|1] [--json out.json] "
                  "[--spans trace.json] [--golden golden.json] "
                  "[--rebaseline]");
    }
    return o;
}

/** Failed points of a pass: perf not positive and finite, a digest
 * unlike the first pass's, or unlike the golden's when given. */
uint64_t
checkPass(const Pass &r, const std::vector<PointOut> &first,
           const Json *golden)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < r.points.size(); ++i) {
        const PointOut &p = r.points[i];
        bool ok = std::isfinite(p.p.perf) && p.p.perf > 0 &&
                  std::isfinite(p.p.mpki) && p.p.mpki >= 0 &&
                  p.digest == first[i].digest;
        if (golden)
            ok = ok && golden->contains(p.id) &&
                 golden->at(p.id).asString() == hex(p.digest);
        if (!ok) {
            ++bad;
            std::printf("FAIL %s: perf %.17g mpki %.17g digest %s\n",
                        p.id.c_str(), p.p.perf, p.p.mpki,
                        hex(p.digest).c_str());
        }
    }
    return bad;
}

/** Per-layer metrics over the traced passes; fills report sections. */
Json
layerMetrics(const Tracer &tr, const Counts &c,
             const std::vector<Pass> &passes, uint64_t seed, Json &report)
{
    std::vector<const Pass *> traced;
    for (const Pass &r : passes)
        if (r.traced)
            traced.push_back(&r);
    const double n = double(traced.size());
    const std::map<std::string, double> self = selfTimes(tr.spans);
    double layer_sum = 0, pass_sum = 0;
    for (const auto &kv : self)
        layer_sum += kv.second;
    for (const Pass *r : traced)
        pass_sum += r->setup + r->wall;

    Json layers = Json::object();
    Json lm = Json::object();
    std::printf("\nlayer self times per traced pass (%zu passes):\n",
                traced.size());
    for (const std::string &l : kLayers) {
        const double share = 100.0 * self.at(l) / layer_sum;
        Json e = Json::object();
        e["self_s"] = Json(self.at(l) / n);
        e["share_pct"] = Json(share);
        layers[l] = std::move(e);
        lm[l + "_share"] = metric(share, "%");
        std::printf("  %-26s %10.4f s %6.2f%%\n", l.c_str(),
                    self.at(l) / n, share);
    }
    std::printf("  %-26s %10.4f s (setup + wall %.4f s)\n", "sum",
                layer_sum / n, pass_sum / n);

    const double oltp_des = self.at("sim.warmup") + self.at("sim.measured");
    auto per_pass = [&](double v) { return metric(v / n, "count"); };
    auto per_des_s = [&](double v) {
        return metric(oltp_des > 0 ? v / oltp_des : 0.0, "1/s");
    };
    auto ratio = [](double part, double whole) {
        return metric(whole > 0 ? part / whole : 0.0, "ratio");
    };
    lm["sim.des_s"] = metric(
        (self.at("harness.run_streams") + oltp_des) / n, "s");
    lm["sim.event_loop.probe_ns_per_event"] =
        metric(eventLoopProbeNs(seed), "ns");
    lm["sim.events_per_s"] = per_des_s(c.events);
    lm["engine.txns_per_s"] = per_des_s(c.committed);
    lm["sim.events"] = per_pass(c.events);
    lm["hw.llc.accesses"] = per_pass(c.llcAccesses);
    lm["hw.llc.misses"] = per_pass(c.llcMisses);
    lm["engine.txns_committed"] = per_pass(c.committed);
    lm["txn.abort_ratio"] = ratio(c.aborted, c.committed + c.aborted);
    lm["txn.locks.grants"] = per_pass(c.lockGrants);
    lm["txn.locks.timeouts"] = per_pass(c.lockTimeouts);
    lm["txn.wal.flushes"] = per_pass(c.walFlushes);
    lm["txn.wal.appended_bytes"] = metric(c.walBytes / n, "B");
    lm["storage.bufferpool.hits"] = per_pass(c.poolHits);
    lm["storage.bufferpool.misses"] = per_pass(c.poolMisses);
    lm["storage.bufferpool.hit_ratio"] =
        ratio(c.poolHits, c.poolHits + c.poolMisses);
    lm["sim.ssd.read_ops"] = per_pass(c.ssdReadOps);
    lm["sim.ssd.write_ops"] = per_pass(c.ssdWriteOps);

    report["layers"] = std::move(layers);
    report["layer_metrics"] = lm;
    report["layer_sum_s"] = Json(layer_sum / n);
    report["pass_mean_s"] = Json(pass_sum / n);
    return lm;
}

int
run(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec *w = nullptr;
    for (const WorkloadSpec &s : workloads())
        if (s.name == o.workload)
            w = &s;
    if (!w) {
        std::string names;
        for (const WorkloadSpec &s : workloads())
            names += " " + s.name;
        fatal("bench_e2e: unknown workload '" + o.workload +
              "' (one of:" + names + ")");
    }
    if (!(o.seconds >= 0))
        fatal("bench_e2e: --seconds must be a non-negative number");
    if (o.rebaseline && o.seed != kDefaultSeed)
        fatal("bench_e2e: --rebaseline needs the default seed");

    Json golden = readJsonFile(o.golden);
    const bool check_golden = o.seed == kDefaultSeed && !o.rebaseline;
    if (check_golden && (!golden.isObject() || !golden.contains(w->name)))
        fatal("bench_e2e: no golden for " + w->name + " in " + o.golden +
              " (run with --rebaseline)");

    std::printf("bench_e2e: workload %s, seed %llu, %.0f s%s\n",
                w->name.c_str(), (unsigned long long)o.seed, o.seconds,
                o.trace ? ", traced" : "");

    // A traced run alternates untraced and traced passes, starting
    // untraced: the first pass is the reference the decomposed points
    // must reproduce, and the later untraced passes give the tracing
    // overhead under the same host conditions. The host-speed probe
    // runs between passes; it is built after the first so that pass's
    // peak RSS is the workload's own.
    constexpr size_t kMinPasses = 3;
    Tracer tr;
    Counts counts;
    std::vector<Pass> passes;
    std::unique_ptr<HostSpeedProbe> probe;
    double rss = 0, probe_before = 0;
    uint64_t attempted = 0, failed = 0;
    const double t0 = now();
    while (passes.size() < kMinPasses || now() - t0 < o.seconds) {
        tr.on = o.trace && passes.size() % 2 == 1;
        tr.pass = int(passes.size());
        passes.push_back(runPass(*w, o.seed, tr, counts));
        Pass &r = passes.back();
        if (!probe) {
            rss = peakRssMb();
            probe = std::make_unique<HostSpeedProbe>();
        }
        const double probe_after = probe->measure();
        r.probe = probe_before > 0 ? std::sqrt(probe_before * probe_after)
                                   : probe_after;
        probe_before = probe_after;
        const uint64_t bad = checkPass(
            r, passes.front().points,
            check_golden ? &golden.at(w->name) : nullptr);
        attempted += r.points.size();
        failed += bad;
        std::printf("pass %zu%s: setup %.4f s, wall %.4f s, probe %.4f s, "
                    "%zu points, %llu failed\n",
                    passes.size(), r.traced ? " (traced)" : "", r.setup,
                    r.wall, r.probe, r.points.size(),
                    (unsigned long long)bad);
    }
    const std::vector<PointOut> &first = passes.front().points;

    std::printf("\n%-24s %14s %10s  %s\n", "point", "perf", "mpki",
                "digest");
    for (const PointOut &p : first)
        std::printf("%-24s %14.4f %10.4f  %s\n", p.id.c_str(), p.p.perf,
                    p.p.mpki, hex(p.digest).c_str());

    if (o.rebaseline) {
        if (!golden.isObject())
            golden = Json::object();
        Json entry = Json::object();
        for (const PointOut &p : first)
            entry[p.id] = Json(hex(p.digest));
        golden[w->name] = std::move(entry);
        if (!golden.writeFile(o.golden, 2))
            fatal("bench_e2e: cannot write " + o.golden);
        std::printf("golden for %s written to %s\n", w->name.c_str(),
                    o.golden.c_str());
    }

    // End-to-end metrics: medians over the passes of this run's mode,
    // rescaled to the reference host speed by the probe.
    std::vector<double> setup_s, wall_s, raw_setup_s, raw_wall_s,
        untraced_wall_s;
    for (const Pass &r : passes) {
        const double scale = kRefProbeS / r.probe;
        if (!r.traced && &r != &passes.front())
            untraced_wall_s.push_back(r.wall * scale);
        if (r.traced == o.trace) {
            setup_s.push_back(r.setup * scale);
            wall_s.push_back(r.wall * scale);
            raw_setup_s.push_back(r.setup);
            raw_wall_s.push_back(r.wall);
        }
    }
    Json e2e = Json::object();
    e2e["wall_s"] = metric(median(wall_s), "s");
    e2e["setup_s"] = metric(median(setup_s), "s");
    e2e["peak_rss_mb"] = metric(rss, "MB");

    Json report = Json::object();
    report["bench"] = Json("bench_e2e");
    report["workload"] = Json(w->name);
    report["seed"] = Json(o.seed);
    report["seconds"] = Json(o.seconds);
    report["trace"] = Json(o.trace);
    report["correct"] = Json(failed == 0);
    report["attempted"] = Json(attempted);
    report["failed"] = Json(failed);
    Json rj = Json::array();
    for (const Pass &r : passes) {
        Json e = Json::object();
        e["setup_s"] = Json(r.setup);
        e["wall_s"] = Json(r.wall);
        e["traced"] = Json(r.traced);
        e["probe_s"] = Json(r.probe);
        Json ps = Json::object();
        for (const PointOut &p : r.points)
            ps[p.id] = Json(p.seconds);
        e["point_s"] = std::move(ps);
        rj.push(std::move(e));
    }
    report["passes"] = std::move(rj);
    report["metrics"] = e2e;
    report["raw_wall_s"] = Json(median(raw_wall_s));
    report["raw_setup_s"] = Json(median(raw_setup_s));
    Json digests = Json::object();
    for (const PointOut &p : first)
        digests[p.id] = Json(hex(p.digest));
    report["digests"] = std::move(digests);

    Json result_metrics = e2e;
    if (o.trace) {
        result_metrics = layerMetrics(tr, counts, passes, o.seed, report);
        const double overhead =
            100.0 * (median(wall_s) / median(untraced_wall_s) - 1.0);
        report["trace_overhead_pct"] = Json(overhead);
        std::printf("tracing overhead: %+.2f%% (traced against untraced "
                    "passes of this run)\n",
                    overhead);
        if (!o.spansPath.empty() &&
            !chromeTrace(tr.spans).writeFile(o.spansPath, -1))
            fatal("bench_e2e: cannot write " + o.spansPath);
    }
    if (!o.jsonPath.empty() && !report.writeFile(o.jsonPath, 2))
        fatal("bench_e2e: cannot write " + o.jsonPath);

    Json result = Json::object();
    result["correct"] = Json(failed == 0);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = std::move(result_metrics);
    std::printf("\n%s\n", result.dump().c_str());
    return 0;
}

} // namespace
} // namespace bench
} // namespace dbsens

int
main(int argc, char **argv)
{
    try {
        return dbsens::bench::run(argc, argv);
    } catch (const std::exception &e) {
        // Malformed numbers in --seed / --seconds land here.
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 2;
    }
}
