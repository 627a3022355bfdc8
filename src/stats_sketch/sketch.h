/**
 * @file
 * Count-min frequency sketch with the three structural properties the
 * engine's statistics backbone needs (DESIGN.md Section 16):
 *
 *  - mergeable: two sketches with the same shape and seed merge by
 *    counter addition, and the merge is *exactly* the sketch of the
 *    concatenated input streams (counter addition commutes), so
 *    per-worker partials combined in morsel order and per-shard
 *    summaries combined at the cluster router are bit-identical to a
 *    single-pass build;
 *
 *  - resizable (the ReSketch idea): the width is a power of two and
 *    slots are selected by masking, so halving the width by *folding*
 *    (counter[i] += counter[i + W/2]) yields exactly the sketch that
 *    a direct build at width W/2 would have produced. Each fold
 *    doubles the analytic error bound epsilon = e / width — a
 *    quantified accuracy cost for shedding memory under grant
 *    pressure;
 *
 *  - partitionable: PartitionedCms keeps P independent sub-sketches
 *    (by seeded key hash, or by an explicit part id such as a shard),
 *    so a subset of partitions can be split off *exactly* — e.g. when
 *    the fleet migrates a tenant's shards — and later re-merged.
 *
 * All hashing is seeded SplitMix64 mixing: deterministic across
 * platforms, same seed ⇒ bit-identical counters and digests.
 *
 * Analytic guarantees (Cormode & Muthukrishnan): estimates never
 * underestimate, and estimate(k) <= true(k) + (e / width) * N with
 * probability >= 1 - exp(-depth) over the seed choice.
 */

#ifndef DBSENS_STATS_SKETCH_SKETCH_H
#define DBSENS_STATS_SKETCH_SKETCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/digest.h"

namespace dbsens {
namespace sketch {

/** Existing callers, the host-time benchmark among them, name the
 * digest helper sketch::fnv1a. */
using dbsens::fnv1a;

/** Width floor of the ReSketch fold ladder. */
constexpr uint32_t kMinCmsWidth = 64;

/** Seeded count-min sketch over 64-bit keys. */
class CountMinSketch
{
  public:
    /**
     * `width` is rounded up to a power of two (mask indexing is what
     * makes fold-resizing exact); `depth` rows bound the failure
     * probability at exp(-depth).
     */
    CountMinSketch(uint32_t width, uint32_t depth, uint64_t seed);

    void update(uint64_t key, uint64_t weight = 1);

    /** Point estimate: min over rows; never underestimates. */
    uint64_t estimate(uint64_t key) const;

    /** Total weight of every update folded in (N in the bound). */
    uint64_t total() const { return total_; }

    /** Analytic overestimate bound: est <= true + epsilon() * N. */
    double epsilon() const;

    /** Failure probability of the epsilon bound: exp(-depth). */
    double delta() const;

    /**
     * Counter addition. Requires identical width/depth/seed (checked);
     * the result is exactly the sketch of the concatenated streams.
     */
    void merge(const CountMinSketch &o);

    /**
     * ReSketch fold: halve the width in place. Bit-identical to a
     * direct build at the halved width; epsilon doubles. No-op at
     * `minWidth`. Returns true if the fold happened.
     */
    bool shrink(uint32_t minWidth = kMinCmsWidth);

    uint32_t width() const { return width_; }
    uint32_t depth() const { return depth_; }
    uint64_t seed() const { return seed_; }

    /** Counter memory, exact (the resize ladder's memory axis). */
    size_t bytes() const { return counters_.size() * sizeof(uint64_t); }

    /** Fraction of counters that are nonzero. */
    double occupancy() const;

    /** FNV-1a over shape + counters (determinism checks). */
    uint64_t digest() const;

  private:
    uint64_t slot(uint32_t row, uint64_t key) const;

    uint32_t width_; ///< power of two
    uint32_t depth_;
    uint64_t seed_;
    uint64_t total_ = 0;
    std::vector<uint64_t> rowSeed_;
    std::vector<uint64_t> counters_; ///< depth_ rows of width_ each
};

/**
 * P independent count-min sub-sketches sharing one shape and seed
 * family. Keys map to exactly one partition (seeded hash, or an
 * explicit part id such as a shard), so:
 *  - estimate(key) reads only its partition (no cross-partition
 *    collision noise),
 *  - extract(parts) splits a subset off *exactly* — the unit of a
 *    fleet tenant migration,
 *  - merged() re-combines partitions by counter addition.
 */
class PartitionedCms
{
  public:
    PartitionedCms(uint32_t parts, uint32_t width, uint32_t depth,
                   uint64_t seed);

    uint32_t parts() const { return uint32_t(parts_.size()); }

    /** Seeded hash partition of a key. */
    uint32_t partOf(uint64_t key) const;

    /** Update via the key's hash partition. */
    void update(uint64_t key, uint64_t weight = 1);

    /** Update an explicit partition (e.g. part == shard id). */
    void updatePart(uint32_t part, uint64_t key, uint64_t weight = 1);

    /** Estimate from the key's hash partition. */
    uint64_t estimate(uint64_t key) const;

    /** Estimate from an explicit partition. */
    uint64_t estimatePart(uint32_t part, uint64_t key) const;

    const CountMinSketch &part(uint32_t p) const { return parts_[p]; }

    /** Sum of all partition sketches (counter addition; exact). */
    CountMinSketch merged() const;

    /** Merge of the named partitions only (migration split). */
    CountMinSketch extract(const std::vector<uint32_t> &ps) const;

    uint64_t total() const;

    /** Fold every partition (the grant-pressure ladder rung). */
    bool shrink(uint32_t minWidth = kMinCmsWidth);

    size_t bytes() const;
    uint64_t digest() const;

  private:
    uint64_t seed_;
    std::vector<CountMinSketch> parts_;
};

} // namespace sketch
} // namespace dbsens

#endif // DBSENS_STATS_SKETCH_SKETCH_H
