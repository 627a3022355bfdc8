#include "stats_sketch/sketch.h"

#include <cassert>
#include <cmath>

#include "core/random.h"

namespace dbsens {
namespace sketch {

namespace {

/** SplitMix64 finalizer: the per-row key mixer. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint32_t
ceilPow2(uint32_t v)
{
    uint32_t w = 1;
    while (w < v)
        w <<= 1;
    return w;
}

} // namespace

CountMinSketch::CountMinSketch(uint32_t width, uint32_t depth,
                               uint64_t seed)
    : width_(ceilPow2(width < 2 ? 2 : width)),
      depth_(depth < 1 ? 1 : depth), seed_(seed)
{
    SplitMix64 sm(seed_);
    rowSeed_.resize(depth_);
    for (auto &s : rowSeed_)
        s = sm.next();
    counters_.assign(size_t(width_) * depth_, 0);
}

uint64_t
CountMinSketch::slot(uint32_t row, uint64_t key) const
{
    return mix64(key ^ rowSeed_[row]) & (width_ - 1);
}

void
CountMinSketch::update(uint64_t key, uint64_t weight)
{
    for (uint32_t r = 0; r < depth_; ++r)
        counters_[size_t(r) * width_ + slot(r, key)] += weight;
    total_ += weight;
}

uint64_t
CountMinSketch::estimate(uint64_t key) const
{
    uint64_t est = UINT64_MAX;
    for (uint32_t r = 0; r < depth_; ++r) {
        const uint64_t c = counters_[size_t(r) * width_ + slot(r, key)];
        if (c < est)
            est = c;
    }
    return est;
}

double
CountMinSketch::epsilon() const
{
    return M_E / double(width_);
}

double
CountMinSketch::delta() const
{
    return std::exp(-double(depth_));
}

void
CountMinSketch::merge(const CountMinSketch &o)
{
    assert(o.width_ == width_ && o.depth_ == depth_ &&
           o.seed_ == seed_);
    for (size_t i = 0; i < counters_.size(); ++i)
        counters_[i] += o.counters_[i];
    total_ += o.total_;
}

bool
CountMinSketch::shrink(uint32_t minWidth)
{
    const uint32_t half = width_ / 2;
    if (half < ceilPow2(minWidth < 2 ? 2 : minWidth))
        return false;
    // Fold: slot h & (W-1) lands on (h & (W/2-1)) or that + W/2, so
    // summing the halves reproduces the direct W/2 build exactly.
    std::vector<uint64_t> folded(size_t(half) * depth_, 0);
    for (uint32_t r = 0; r < depth_; ++r)
        for (uint32_t i = 0; i < width_; ++i)
            folded[size_t(r) * half + (i & (half - 1))] +=
                counters_[size_t(r) * width_ + i];
    counters_ = std::move(folded);
    width_ = half;
    return true;
}

double
CountMinSketch::occupancy() const
{
    size_t nz = 0;
    for (const uint64_t c : counters_)
        nz += c != 0;
    return counters_.empty() ? 0.0
                             : double(nz) / double(counters_.size());
}

uint64_t
CountMinSketch::digest() const
{
    uint64_t h = fnv1a(&width_, sizeof width_);
    h = fnv1a(&depth_, sizeof depth_, h);
    h = fnv1a(&seed_, sizeof seed_, h);
    h = fnv1a(&total_, sizeof total_, h);
    return fnv1a(counters_.data(),
                 counters_.size() * sizeof(uint64_t), h);
}

PartitionedCms::PartitionedCms(uint32_t parts, uint32_t width,
                               uint32_t depth, uint64_t seed)
    : seed_(seed)
{
    if (parts < 1)
        parts = 1;
    parts_.reserve(parts);
    // Same seed for every partition so counter-addition merges are
    // well-formed across any subset.
    for (uint32_t p = 0; p < parts; ++p)
        parts_.emplace_back(width, depth, seed);
}

uint32_t
PartitionedCms::partOf(uint64_t key) const
{
    return uint32_t(mix64(key ^ (seed_ * 0x9e3779b97f4a7c15ULL)) %
                    parts_.size());
}

void
PartitionedCms::update(uint64_t key, uint64_t weight)
{
    parts_[partOf(key)].update(key, weight);
}

void
PartitionedCms::updatePart(uint32_t part, uint64_t key,
                           uint64_t weight)
{
    parts_[part].update(key, weight);
}

uint64_t
PartitionedCms::estimate(uint64_t key) const
{
    return parts_[partOf(key)].estimate(key);
}

uint64_t
PartitionedCms::estimatePart(uint32_t part, uint64_t key) const
{
    return parts_[part].estimate(key);
}

CountMinSketch
PartitionedCms::merged() const
{
    CountMinSketch out = parts_[0];
    for (size_t p = 1; p < parts_.size(); ++p)
        out.merge(parts_[p]);
    return out;
}

CountMinSketch
PartitionedCms::extract(const std::vector<uint32_t> &ps) const
{
    CountMinSketch out(parts_[0].width(), parts_[0].depth(), seed_);
    for (const uint32_t p : ps)
        out.merge(parts_[p]);
    return out;
}

uint64_t
PartitionedCms::total() const
{
    uint64_t t = 0;
    for (const auto &p : parts_)
        t += p.total();
    return t;
}

bool
PartitionedCms::shrink(uint32_t minWidth)
{
    bool any = false;
    for (auto &p : parts_)
        any = p.shrink(minWidth) || any;
    return any;
}

size_t
PartitionedCms::bytes() const
{
    size_t b = 0;
    for (const auto &p : parts_)
        b += p.bytes();
    return b;
}

uint64_t
PartitionedCms::digest() const
{
    uint64_t h = kFnvBasis;
    for (const auto &p : parts_)
        h = fnv1aWord(h, p.digest());
    return h;
}

} // namespace sketch
} // namespace dbsens
