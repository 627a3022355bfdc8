#include "stats_sketch/kll.h"

#include <algorithm>

#include "core/digest.h"

namespace dbsens {
namespace sketch {

KllSketch::KllSketch(uint32_t k, uint64_t seed)
    : k_(k < 8 ? 8 : k), seed_(seed), coin_(seed ^ 0x6b6c6c5eedULL)
{
    levels_.emplace_back();
    levels_[0].reserve(k_);
}

void
KllSketch::update(double v)
{
    levels_[0].push_back(v);
    ++count_;
    if (levels_[0].size() >= k_)
        compactOverfull();
}

void
KllSketch::compact(size_t level)
{
    // Grow the stack before taking references: emplace_back may
    // reallocate and would invalidate them.
    if (levels_.size() == level + 1)
        levels_.emplace_back();
    auto &buf = levels_[level];
    auto &up = levels_[level + 1];

    std::sort(buf.begin(), buf.end());
    // An odd survivor stays at this level; the even prefix is halved.
    const size_t keep = buf.size() % 2;
    const size_t paired = buf.size() - keep;
    const size_t start = size_t(coin_() & 1);
    for (size_t i = start; i < paired; i += 2)
        up.push_back(buf[i]);
    if (keep)
        buf[0] = buf[paired];
    buf.resize(keep);
    // One compaction at level l moves any value's rank by at most one
    // item weight 2^l — the exact online error budget.
    errBound_ += uint64_t(1) << level;
}

void
KllSketch::compactOverfull()
{
    for (size_t l = 0; l < levels_.size(); ++l)
        if (levels_[l].size() >= k_)
            compact(l);
}

uint64_t
KllSketch::rank(double v) const
{
    uint64_t r = 0;
    for (size_t l = 0; l < levels_.size(); ++l) {
        const uint64_t w = uint64_t(1) << l;
        for (const double x : levels_[l])
            if (x < v)
                r += w;
    }
    return r;
}

double
KllSketch::quantile(double q) const
{
    auto items = weightedItems();
    if (items.empty())
        return 0.0;
    std::sort(items.begin(), items.end());
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    const double target = q * double(count_);
    uint64_t cum = 0;
    for (const auto &[v, w] : items) {
        cum += w;
        if (double(cum) >= target)
            return v;
    }
    return items.back().first;
}

void
KllSketch::merge(const KllSketch &o)
{
    while (levels_.size() < o.levels_.size())
        levels_.emplace_back();
    for (size_t l = 0; l < o.levels_.size(); ++l)
        levels_[l].insert(levels_[l].end(), o.levels_[l].begin(),
                          o.levels_[l].end());
    count_ += o.count_;
    errBound_ += o.errBound_;
    compactOverfull();
}

bool
KllSketch::shrink(uint32_t minK)
{
    if (minK < 8)
        minK = 8;
    const uint32_t half = k_ / 2;
    if (half < minK)
        return false;
    k_ = half;
    compactOverfull();
    return true;
}

std::vector<std::pair<double, uint64_t>>
KllSketch::weightedItems() const
{
    std::vector<std::pair<double, uint64_t>> out;
    out.reserve(itemCount());
    for (size_t l = 0; l < levels_.size(); ++l) {
        const uint64_t w = uint64_t(1) << l;
        for (const double x : levels_[l])
            out.emplace_back(x, w);
    }
    return out;
}

size_t
KllSketch::bytes() const
{
    return itemCount() * sizeof(double);
}

size_t
KllSketch::itemCount() const
{
    size_t n = 0;
    for (const auto &b : levels_)
        n += b.size();
    return n;
}

uint64_t
KllSketch::digest() const
{
    uint64_t h = fnv1a(&k_, sizeof k_);
    h = fnv1a(&count_, sizeof count_, h);
    h = fnv1a(&errBound_, sizeof errBound_, h);
    for (const auto &b : levels_) {
        const uint64_t n = b.size();
        h = fnv1a(&n, sizeof n, h);
        h = fnv1a(b.data(), b.size() * sizeof(double), h);
    }
    return h;
}

} // namespace sketch
} // namespace dbsens
