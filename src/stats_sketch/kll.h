/**
 * @file
 * KLL-style quantile sketch: a compactor stack of level buffers where
 * a level-l item carries weight 2^l. When a level overflows its
 * budget k, the buffer is sorted and alternating items (offset chosen
 * by a seeded coin) are promoted with doubled weight.
 *
 * Error accounting is *exact and online*: a compaction at level l can
 * shift the rank of any value by at most one item weight 2^l
 * (Karnin–Lang–Liberty's per-compaction bound), so the sketch keeps a
 * running worst-case rank-error budget `rankErrorBound()` — the sum
 * of 2^l over every compaction it ever performed, including those
 * triggered by merges and shrinks. Every rank/quantile answer is
 * guaranteed within that many ranks of the truth, which is what the
 * differential tests and the fig14 verdict gate on.
 *
 * Mergeable (append level-wise, recompact; bounds add), resizable
 * (halve the compaction budget k under grant pressure; the extra
 * compactions' cost lands in the same bound — a quantified accuracy
 * cost), and deterministic: the compaction coin is a seeded Rng, so
 * the same seed and input sequence give bit-identical digests.
 */

#ifndef DBSENS_STATS_SKETCH_KLL_H
#define DBSENS_STATS_SKETCH_KLL_H

#include <cstdint>
#include <utility>
#include <vector>

#include "core/random.h"

namespace dbsens {
namespace sketch {

/** Compaction-budget floor of the grant-pressure shrink ladder. */
constexpr uint32_t kMinKllK = 16;

/** Seeded, mergeable, resizable quantile sketch over doubles. */
class KllSketch
{
  public:
    explicit KllSketch(uint32_t k = 128, uint64_t seed = 1);

    void update(double v);

    /** Total items folded in. */
    uint64_t count() const { return count_; }

    /** Per-level compaction budget. */
    uint32_t k() const { return k_; }

    /**
     * Estimated number of items with value < v. Guaranteed within
     * rankErrorBound() ranks of the exact count.
     */
    uint64_t rank(double v) const;

    /**
     * Value at quantile q in [0, 1]: the smallest retained value
     * whose cumulative weight reaches q * count(). Its exact rank is
     * within rankErrorBound() of q * count().
     */
    double quantile(double q) const;

    /** Exact online worst-case rank error (sum of compaction
     * weights); 0 until the first compaction. */
    uint64_t rankErrorBound() const { return errBound_; }

    /** Append o's buffers level-wise and recompact; error bounds add
     * (plus any recompaction cost, folded into the bound). */
    void merge(const KllSketch &o);

    /**
     * Halve the compaction budget (not below minK) and recompact to
     * the new budget. The forced compactions' cost lands in
     * rankErrorBound() — the quantified accuracy price of the
     * memory cut. Returns true if the budget changed.
     */
    bool shrink(uint32_t minK = kMinKllK);

    /** Retained items as (value, weight), unsorted. */
    std::vector<std::pair<double, uint64_t>> weightedItems() const;

    /** Retained-item memory, exact. */
    size_t bytes() const;

    /** Retained items across all levels. */
    size_t itemCount() const;

    /** FNV-1a over k, count, bound, and level contents. */
    uint64_t digest() const;

  private:
    void compact(size_t level);
    void compactOverfull();

    uint32_t k_;
    uint64_t seed_;
    Rng coin_;
    uint64_t count_ = 0;
    uint64_t errBound_ = 0;
    std::vector<std::vector<double>> levels_;
};

} // namespace sketch
} // namespace dbsens

#endif // DBSENS_STATS_SKETCH_KLL_H
