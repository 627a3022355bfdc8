/**
 * @file
 * Lightweight statistics containers used for measurement output:
 * a streaming summary (mean/min/max) and a value-list distribution
 * with exact quantiles and CDFs (the paper reports 1-second bandwidth
 * samples as CDFs).
 */

#ifndef DBSENS_CORE_HISTOGRAM_H
#define DBSENS_CORE_HISTOGRAM_H

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace dbsens {

/** Streaming mean/min/max/count accumulator. */
class Summary
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        count_ += 1;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Exact distribution of observed samples. Stores every sample; fine for
 * the thousands of 1-second interval samples an experiment produces.
 */
class Distribution
{
  public:
    void add(double v) { samples_.push_back(v); sorted_ = false; }

    size_t count() const { return samples_.size(); }

    double
    mean() const
    {
        if (samples_.empty())
            return 0.0;
        double s = 0.0;
        for (double v : samples_)
            s += v;
        return s / double(samples_.size());
    }

    /** Quantile in [0, 1]; q = 0.5 is the median. */
    double
    quantile(double q) const
    {
        assert(q >= 0.0 && q <= 1.0);
        if (samples_.empty())
            return 0.0;
        sortIfNeeded();
        const double pos = q * double(samples_.size() - 1);
        const auto lo = size_t(std::floor(pos));
        const auto hi = size_t(std::ceil(pos));
        const double frac = pos - double(lo);
        return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
    }

    /** Fraction of samples <= x (empirical CDF). */
    double
    cdfAt(double x) const
    {
        if (samples_.empty())
            return 0.0;
        sortIfNeeded();
        auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
        return double(it - samples_.begin()) / double(samples_.size());
    }

    /**
     * Evenly spaced CDF points for plotting: returns `points` pairs of
     * (value, cumulative fraction).
     */
    std::vector<std::pair<double, double>>
    cdfSeries(size_t points) const
    {
        std::vector<std::pair<double, double>> out;
        if (samples_.empty() || points == 0)
            return out;
        sortIfNeeded();
        out.reserve(points);
        for (size_t i = 0; i < points; ++i) {
            const double q = double(i) / double(points - 1 ? points - 1 : 1);
            out.emplace_back(quantile(q), q);
        }
        return out;
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    void
    sortIfNeeded() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace dbsens

#endif // DBSENS_CORE_HISTOGRAM_H
