#include "stats_sketch/hub.h"

namespace dbsens {
namespace sketch {

namespace {

/** Hot-row tracker partitions per table. */
constexpr uint32_t kHotParts = 8;
/** Grant-capacity drop ratio per sketch shed rung. */
constexpr double kShrinkGrantFrac = 0.5;

} // namespace

SketchHub::SketchHub(const SketchConfig &cfg)
    : cfg_(cfg), pageHeat_(cfg.hotWidth, cfg.cmsDepth,
                           cfg.seed ^ 0x7061676573ULL),
      lat_{KllSketch(cfg.kllK, cfg.seed ^ 0x6c617430ULL),
           KllSketch(cfg.kllK, cfg.seed ^ 0x6c617431ULL)}
{
}

const SketchHub::ColumnStats *
SketchHub::findColumn(const std::string &table,
                      const std::string &column) const
{
    const auto it = columns_.find(table + "." + column);
    return it == columns_.end() ? nullptr : it->second.get();
}

SketchHub::ColumnStats &
SketchHub::addColumn(const std::string &table,
                     const std::string &column)
{
    auto &slot = columns_[table + "." + column];
    if (!slot)
        slot = std::make_unique<ColumnStats>(
            cfg_.cmsWidth, cfg_.cmsDepth, cfg_.kllK,
            columnSeed(table, column));
    return *slot;
}

uint64_t
SketchHub::columnSeed(const std::string &table,
                      const std::string &column) const
{
    const std::string key = table + "." + column;
    return cfg_.seed ^ fnv1a(key.data(), key.size());
}

void
SketchHub::noteRowAccess(uint64_t tableId, uint64_t row)
{
    auto &slot = rowHeat_[tableId];
    if (!slot)
        slot = std::make_unique<PartitionedCms>(
            kHotParts, cfg_.hotWidth, cfg_.cmsDepth,
            cfg_.seed ^ (tableId * 0x9e3779b97f4a7c15ULL));
    ++rowAccesses_;
    slot->update(row);
    const uint64_t total = slot->total();
    if (total >= cfg_.hotMinTotal &&
        double(slot->estimate(row)) >=
            cfg_.hotFraction * double(total))
        ++hotHits_;
}

bool
SketchHub::isHotRow(uint64_t tableId, uint64_t row) const
{
    const auto it = rowHeat_.find(tableId);
    if (it == rowHeat_.end())
        return false;
    const uint64_t total = it->second->total();
    return total >= cfg_.hotMinTotal &&
           double(it->second->estimate(row)) >=
               cfg_.hotFraction * double(total);
}

void
SketchHub::notePageAccess(uint64_t page)
{
    ++pageAccesses_;
    pageHeat_.update(page);
}

const PartitionedCms *
SketchHub::rowTracker(uint64_t tableId) const
{
    const auto it = rowHeat_.find(tableId);
    return it == rowHeat_.end() ? nullptr : it->second.get();
}

void
SketchHub::noteLatency(int tenant, double ms)
{
    if (tenant >= 0 && tenant < kTenants)
        lat_[tenant].update(ms);
}

double
SketchHub::latencyQuantile(int tenant, double q) const
{
    return (tenant >= 0 && tenant < kTenants)
               ? lat_[tenant].quantile(q)
               : 0.0;
}

uint64_t
SketchHub::latencyCount(int tenant) const
{
    return (tenant >= 0 && tenant < kTenants) ? lat_[tenant].count()
                                              : 0;
}

void
SketchHub::noteGrantCapacity(uint64_t bytes)
{
    if (grantBaseline_ == 0) {
        grantBaseline_ = bytes;
        nextShrinkBelow_ = double(bytes) * kShrinkGrantFrac;
        return;
    }
    // Each crossing of the next rung sheds one halving everywhere;
    // repeated actuations at the same capacity shed nothing more.
    while (double(bytes) <= nextShrinkBelow_ && shrinkAll()) {
        ++resizes_;
        ResizeStep step;
        step.capacityBytes = bytes;
        step.hotWidth = pageHeat_.width();
        step.eps = pageHeat_.epsilon();
        step.bytes = this->bytes();
        resizeLog_.push_back(step);
        nextShrinkBelow_ *= kShrinkGrantFrac;
    }
}

bool
SketchHub::shrinkAll()
{
    bool any = pageHeat_.shrink(kMinCmsWidth);
    for (auto &[id, t] : rowHeat_)
        any = t->shrink(kMinCmsWidth) || any;
    for (auto &[name, c] : columns_) {
        any = c->cms.shrink(kMinCmsWidth) || any;
        any = c->kll.shrink(kMinKllK) || any;
    }
    for (auto &l : lat_)
        any = l.shrink(kMinKllK) || any;
    return any;
}

size_t
SketchHub::bytes() const
{
    size_t b = pageHeat_.bytes();
    for (const auto &[id, t] : rowHeat_)
        b += t->bytes();
    for (const auto &[name, c] : columns_)
        b += c->cms.bytes() + c->kll.bytes();
    for (const auto &l : lat_)
        b += l.bytes();
    return b;
}

double
SketchHub::occupancy() const
{
    if (rowHeat_.empty())
        return pageHeat_.occupancy();
    double sum = 0;
    for (const auto &[id, t] : rowHeat_)
        sum += t->merged().occupancy();
    return sum / double(rowHeat_.size());
}

uint64_t
SketchHub::digest() const
{
    uint64_t h = kFnvBasis;
    auto fold = [&h](uint64_t d) { h = fnv1aWord(h, d); };
    fold(pageHeat_.digest());
    for (const auto &[id, t] : rowHeat_) {
        fold(id);
        fold(t->digest());
    }
    for (const auto &[name, c] : columns_) {
        h = fnv1a(name.data(), name.size(), h);
        fold(c->cms.digest());
        fold(c->kll.digest());
    }
    for (const auto &l : lat_)
        fold(l.digest());
    return h;
}

SketchResult
SketchHub::result() const
{
    SketchResult r;
    r.enabled = true;
    r.cmsWidth = pageHeat_.width();
    r.cmsDepth = cfg_.cmsDepth;
    r.cmsEps = pageHeat_.epsilon();
    r.kllK = lat_[0].k();
    r.resizes = resizes_;
    r.columns = int(columns_.size());
    r.rowAccesses = rowAccesses_;
    r.pageAccesses = pageAccesses_;
    r.hotHits = hotHits_;
    r.bytes = bytes();
    r.occupancy = occupancy();
    for (int t = 0; t < kTenants; ++t) {
        r.latencyCount[t] = lat_[t].count();
        r.latP50Ms[t] = lat_[t].quantile(0.50);
        r.latP95Ms[t] = lat_[t].quantile(0.95);
        r.latP99Ms[t] = lat_[t].quantile(0.99);
    }
    r.digest = digest();
    return r;
}

void
SketchHub::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    reg.gauge(prefix + ".columns",
              [this] { return double(columns_.size()); },
              "column statistics built");
    reg.gauge(prefix + ".bytes", [this] { return double(bytes()); },
              "total sketch memory");
    reg.gauge(prefix + ".occupancy",
              [this] { return occupancy(); },
              "hot-row tracker counter occupancy");
    reg.gauge(prefix + ".resizes",
              [this] { return double(resizes_); },
              "grant-pressure shed rungs");
    reg.gauge(prefix + ".row_accesses",
              [this] { return double(rowAccesses_); },
              "row accesses tracked");
    reg.gauge(prefix + ".page_accesses",
              [this] { return double(pageAccesses_); },
              "page accesses tracked");
    reg.gauge(prefix + ".hot_hits",
              [this] { return double(hotHits_); },
              "accesses to already-hot rows");
    reg.gauge(prefix + ".cms_eps",
              [this] { return pageHeat_.epsilon(); },
              "CMS analytic overestimate bound factor");
    for (int t = 0; t < kTenants; ++t) {
        const std::string tp = prefix + ".t" + std::to_string(t);
        reg.gauge(tp + ".lat_count",
                  [this, t] { return double(lat_[t].count()); },
                  "latency samples sketched");
        reg.gauge(tp + ".lat_p50_ms",
                  [this, t] { return lat_[t].quantile(0.50); },
                  "sketched latency median (ms)");
        reg.gauge(tp + ".lat_p95_ms",
                  [this, t] { return lat_[t].quantile(0.95); },
                  "sketched latency p95 (ms)");
        reg.gauge(tp + ".lat_p99_ms",
                  [this, t] { return lat_[t].quantile(0.99); },
                  "sketched latency p99 (ms)");
    }
}

} // namespace sketch
} // namespace dbsens
