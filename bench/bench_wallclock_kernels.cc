/**
 * @file
 * Wall-clock benchmarks of the executor hot path: vectorized
 * expression kernels and flat hash tables versus the shapes they
 * replaced (per-row tree interpretation, std::unordered_multimap
 * joins, std::unordered_map<std::vector> aggregation). Also the LLC
 * trace replay and LlcSim::access versus a per-access loop over the
 * interleaved-row LLC they replaced.
 *
 * Kept in a separate translation unit from bench_wallclock.cc on
 * purpose: this file includes only the kernel headers under test, so
 * header growth elsewhere (engine, stats, tracing) cannot shift the
 * compiler's inlining decisions for the timed loops.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/random.h"
#include "exec/expr.h"
#include "exec/flat_hash.h"
#include "exec/morsel.h"
#include "hw/cache_feed.h"
#include "reference_llc.h"
#include "wallclock_params.h"

namespace dbsens {
namespace {

constexpr size_t kRows = kWallclockRows;
constexpr size_t kBuildRows = kWallclockBuildRows;

uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
    return h * 0xff51afd7ed558ccdULL;
}

/** 1M-row lineitem-shaped chunk (TPC-H Q6 predicate columns). */
const Chunk &
testChunk()
{
    static const Chunk chunk = [] {
        Rng rng(42);
        Chunk c;
        c.addColumn(ColumnVector::ints("ship"));
        c.addColumn(ColumnVector::ints("qty"));
        c.addColumn(ColumnVector::doubles("disc"));
        c.addColumn(ColumnVector::doubles("price"));
        auto &ship = c.byName("ship");
        auto &qty = c.byName("qty");
        auto &disc = c.byName("disc");
        auto &price = c.byName("price");
        for (size_t i = 0; i < kRows; ++i) {
            ship.ints().push_back(int64_t(rng.range(8000, 11000)));
            qty.ints().push_back(int64_t(rng.range(1, 50)));
            disc.doubles().push_back(double(rng.range(0, 10)) / 100.0);
            price.doubles().push_back(double(rng.range(100, 10000)));
        }
        return c;
    }();
    return chunk;
}

/** TPC-H Q6-shaped predicate over testChunk(). */
ExprPtr
q6Pred()
{
    return land(land(ge(col("ship"), lit(int64_t(9000))),
                     lt(col("ship"), lit(int64_t(9365)))),
                land(between(col("disc"), Value(0.05), Value(0.07)),
                     lt(col("qty"), lit(int64_t(24)))));
}

struct JoinData
{
    std::vector<int64_t> build, probe;
};

const JoinData &
joinData()
{
    static const JoinData d = [] {
        Rng rng(7);
        JoinData jd;
        jd.build.resize(kBuildRows);
        jd.probe.resize(kRows);
        for (auto &k : jd.build)
            k = int64_t(rng.range(0, 1 << 19));
        for (auto &k : jd.probe)
            k = int64_t(rng.range(0, 1 << 19));
        return jd;
    }();
    return d;
}

/**
 * Record the bytes one kernel pass reads+writes: google-benchmark
 * derives bytes/s, and the JSON reporter derives bytes/ms — the
 * honest denominator for "is this kernel memory-bound?".
 */
void
setBytes(benchmark::State &state, size_t bytes_per_pass)
{
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(bytes_per_pass));
    state.counters["bytes_per_pass"] = double(bytes_per_pass);
}

// ------------------------------------------------------ filter kernels

void
BM_FilterScalarRef(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    BoundExpr be(q6Pred(), chunk, nullptr);
    size_t matches = 0;
    for (auto _ : state) {
        std::vector<uint32_t> sel;
        for (size_t i = 0; i < chunk.rows(); ++i)
            if (be.evalBool(i))
                sel.push_back(uint32_t(i));
        matches = sel.size();
        benchmark::DoNotOptimize(sel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(chunk.rows()));
    setBytes(state, kRows * 4 * 8); // four 8-byte predicate columns
    state.counters["matches"] = double(matches);
}
BENCHMARK(BM_FilterScalarRef)->Repetitions(3);

void
BM_FilterVectorized(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    auto pred = q6Pred();
    size_t matches = 0;
    for (auto _ : state) {
        auto sel = filterRows(pred, chunk);
        matches = sel.size();
        benchmark::DoNotOptimize(sel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(chunk.rows()));
    setBytes(state, kRows * 4 * 8);
    state.counters["matches"] = double(matches);
}
BENCHMARK(BM_FilterVectorized)->Repetitions(3);

/** Morsel-parallel vectorized filter; Arg = worker count. */
void
BM_FilterMorsel(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    WorkerPool pool(unsigned(state.range(0)));
    BoundExpr be(q6Pred(), chunk, nullptr);
    size_t matches = 0;
    for (auto _ : state) {
        auto sel = morselFilter(be, chunk.rows(), &pool);
        matches = sel.size();
        benchmark::DoNotOptimize(sel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(chunk.rows()));
    setBytes(state, kRows * 4 * 8);
    state.counters["matches"] = double(matches);
}
BENCHMARK(BM_FilterMorsel)->Arg(1)->Arg(2)->Arg(4)->Repetitions(3);

void
BM_EvalColumn(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    auto proj = mul(col("price"), sub(lit(1.0), col("disc")));
    for (auto _ : state) {
        auto cv = evalColumn(proj, chunk, "x");
        benchmark::DoNotOptimize(cv.doubles().data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(chunk.rows()));
    setBytes(state, kRows * 3 * 8); // price+disc read, result write
}
BENCHMARK(BM_EvalColumn)->Repetitions(3);

// ---------------------------------------------------------- agg kernels

/** Seed shape: unordered_map over heap-allocated vector keys. */
void
BM_HashAggRef(benchmark::State &state)
{
    struct VecHash
    {
        size_t
        operator()(const std::vector<int64_t> &v) const
        {
            uint64_t h = 0xA66;
            for (int64_t x : v)
                h = hashCombine(h, uint64_t(x));
            return size_t(h);
        }
    };
    const Chunk &chunk = testChunk();
    const ColumnVector &kc = chunk.byName("qty");
    const ColumnVector &kc2 = chunk.byName("ship");
    const ColumnVector &vc = chunk.byName("price");
    size_t ngroups = 0;
    for (auto _ : state) {
        std::unordered_map<std::vector<int64_t>, size_t, VecHash> index;
        std::vector<std::vector<int64_t>> group_keys;
        std::vector<double> sums;
        std::vector<int64_t> key(2);
        for (size_t i = 0; i < kRows; ++i) {
            key[0] = kc.intAt(i);
            key[1] = kc2.intAt(i) % 8;
            size_t g;
            auto it = index.find(key);
            if (it == index.end()) {
                g = group_keys.size();
                group_keys.push_back(key);
                sums.push_back(0);
                index.emplace(key, g);
            } else {
                g = it->second;
            }
            sums[g] += vc.doubleAt(i);
        }
        ngroups = group_keys.size();
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, kRows * 3 * 8); // two key columns + value column
    state.counters["groups"] = double(ngroups);
}
BENCHMARK(BM_HashAggRef)->Repetitions(3);

/** New shape: FlatGroupMap over a flat packed key array. */
void
BM_HashAggFlat(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    const int64_t *kc = chunk.byName("qty").ints().data();
    const int64_t *kc2 = chunk.byName("ship").ints().data();
    const double *vc = chunk.byName("price").doubles().data();
    size_t ngroups = 0;
    for (auto _ : state) {
        FlatGroupMap index(1024);
        std::vector<int64_t> group_keys; // stride 2
        std::vector<double> sums;
        for (size_t i = 0; i < kRows; ++i) {
            const int64_t k0 = kc[i], k1 = kc2[i] % 8;
            uint64_t h = hashCombine(0xA66, uint64_t(k0));
            h = hashCombine(h, uint64_t(k1));
            bool inserted = false;
            const uint32_t g = index.findOrInsert(
                h, uint32_t(sums.size()),
                [&](uint32_t gid) {
                    const int64_t *gk =
                        group_keys.data() + size_t(gid) * 2;
                    return gk[0] == k0 && gk[1] == k1;
                },
                inserted);
            if (inserted) {
                group_keys.push_back(k0);
                group_keys.push_back(k1);
                sums.push_back(0);
            }
            sums[g] += vc[i];
        }
        ngroups = sums.size();
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, kRows * 3 * 8);
    state.counters["groups"] = double(ngroups);
}
BENCHMARK(BM_HashAggFlat)->Repetitions(3);

/**
 * Morsel-parallel aggregation: each morsel builds a local FlatGroupMap
 * partial, partials merge into the global table in morsel order (the
 * deterministic merge the executor's aggregate would use); Arg =
 * worker count.
 */
void
BM_HashAggMorsel(benchmark::State &state)
{
    const Chunk &chunk = testChunk();
    const int64_t *kc = chunk.byName("qty").ints().data();
    const int64_t *kc2 = chunk.byName("ship").ints().data();
    const double *vc = chunk.byName("price").doubles().data();
    WorkerPool pool(unsigned(state.range(0)));
    struct Part
    {
        std::vector<int64_t> keys; // stride 2
        std::vector<double> sums;
    };
    size_t ngroups = 0;
    for (auto _ : state) {
        auto parts = morselMap<Part>(
            &pool, kRows, kDefaultMorselRows,
            [&](size_t, size_t begin, size_t end) {
                Part p;
                FlatGroupMap index(1024);
                for (size_t i = begin; i < end; ++i) {
                    const int64_t k0 = kc[i], k1 = kc2[i] % 8;
                    uint64_t h = hashCombine(0xA66, uint64_t(k0));
                    h = hashCombine(h, uint64_t(k1));
                    bool inserted = false;
                    const uint32_t g = index.findOrInsert(
                        h, uint32_t(p.sums.size()),
                        [&](uint32_t gid) {
                            const int64_t *gk =
                                p.keys.data() + size_t(gid) * 2;
                            return gk[0] == k0 && gk[1] == k1;
                        },
                        inserted);
                    if (inserted) {
                        p.keys.push_back(k0);
                        p.keys.push_back(k1);
                        p.sums.push_back(0);
                    }
                    p.sums[g] += vc[i];
                }
                return p;
            });
        // Deterministic merge: partials in morsel order, groups in
        // each partial's first-appearance order.
        FlatGroupMap index(1024);
        std::vector<int64_t> group_keys; // stride 2
        std::vector<double> sums;
        for (const Part &p : parts) {
            for (size_t gi = 0; gi < p.sums.size(); ++gi) {
                const int64_t k0 = p.keys[gi * 2];
                const int64_t k1 = p.keys[gi * 2 + 1];
                uint64_t h = hashCombine(0xA66, uint64_t(k0));
                h = hashCombine(h, uint64_t(k1));
                bool inserted = false;
                const uint32_t g = index.findOrInsert(
                    h, uint32_t(sums.size()),
                    [&](uint32_t gid) {
                        const int64_t *gk =
                            group_keys.data() + size_t(gid) * 2;
                        return gk[0] == k0 && gk[1] == k1;
                    },
                    inserted);
                if (inserted) {
                    group_keys.push_back(k0);
                    group_keys.push_back(k1);
                    sums.push_back(0);
                }
                sums[g] += p.sums[gi];
            }
        }
        ngroups = sums.size();
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, kRows * 3 * 8);
    state.counters["groups"] = double(ngroups);
}
BENCHMARK(BM_HashAggMorsel)->Arg(1)->Arg(2)->Arg(4)->Repetitions(3);

// --------------------------------------------------------- join kernels

/** Seed shape: unordered_multimap from hash to build row. */
void
BM_HashJoinRef(benchmark::State &state)
{
    const JoinData &jd = joinData();
    size_t pairs = 0;
    for (auto _ : state) {
        std::unordered_multimap<uint64_t, uint32_t> ht;
        ht.reserve(kBuildRows);
        for (uint32_t i = 0; i < kBuildRows; ++i)
            ht.emplace(hashCombine(0x51ed, uint64_t(jd.build[i])), i);
        std::vector<uint32_t> lsel, rsel;
        for (uint32_t i = 0; i < kRows; ++i) {
            auto [lo, hi] = ht.equal_range(
                hashCombine(0x51ed, uint64_t(jd.probe[i])));
            for (auto it = lo; it != hi; ++it) {
                if (jd.build[it->second] != jd.probe[i])
                    continue;
                lsel.push_back(i);
                rsel.push_back(it->second);
            }
        }
        pairs = lsel.size();
        benchmark::DoNotOptimize(lsel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, (kRows + kBuildRows) * 8);
    state.counters["pairs"] = double(pairs);
}
BENCHMARK(BM_HashJoinRef)->Repetitions(3);

/**
 * Build and probe phases of the flat join, outlined so each phase
 * compiles as its own function: keeps the timed loops' codegen stable
 * regardless of what else lands in this translation unit, and stops
 * the phases from competing for registers in one giant function.
 */
__attribute__((noinline)) void
flatJoinBuild(FlatMultiMap &ht, const JoinData &jd)
{
    // Batched hash → prefetch → insert: by the time a slot line is
    // dereferenced, its fetch has been in flight for a whole batch.
    ht.reserve(kBuildRows);
    uint64_t hashes[kFlatHashProbeBatch];
    for (uint32_t at = 0; at < kBuildRows;) {
        const uint32_t m = uint32_t(
            std::min(size_t(kBuildRows - at), kFlatHashProbeBatch));
        for (uint32_t j = 0; j < m; ++j) {
            hashes[j] = hashCombine(0x51ed, uint64_t(jd.build[at + j]));
            ht.prefetchForInsert(hashes[j]);
        }
        for (uint32_t j = 0; j < m; ++j)
            ht.insert(hashes[j], at + j);
        at += m;
    }
}

__attribute__((noinline)) void
flatJoinProbeRange(const FlatMultiMap &ht, const JoinData &jd,
                   size_t begin, size_t end,
                   std::vector<uint32_t> &lsel,
                   std::vector<uint32_t> &rsel)
{
    // Two pipelined stages per batch: hash + prefetch all slot lines,
    // then walk them — each slot's fetch has a whole batch of work in
    // flight ahead of its first dereference. (A third stage deferring
    // the build-key verify behind its own prefetch was tried and lost:
    // the 2 MB key array is cache-resident, so the candidate-buffer
    // traffic cost more than the verify loads it hid.)
    uint64_t hashes[kFlatHashProbeBatch];
    for (uint32_t at = uint32_t(begin); at < uint32_t(end);) {
        const uint32_t m = uint32_t(
            std::min(end - size_t(at), kFlatHashProbeBatch));
        for (uint32_t j = 0; j < m; ++j) {
            hashes[j] = hashCombine(0x51ed, uint64_t(jd.probe[at + j]));
            ht.prefetch(hashes[j]);
        }
        for (uint32_t j = 0; j < m; ++j) {
            const uint32_t i = at + j;
            ht.forEachMatch(hashes[j], [&](uint32_t b) {
                if (jd.build[b] == jd.probe[i]) {
                    lsel.push_back(i);
                    rsel.push_back(b);
                }
                return true;
            });
        }
        at += m;
    }
}

void
flatJoinProbe(const FlatMultiMap &ht, const JoinData &jd,
              std::vector<uint32_t> &lsel, std::vector<uint32_t> &rsel)
{
    flatJoinProbeRange(ht, jd, 0, kRows, lsel, rsel);
}

/** New shape: FlatMultiMap with insertion-order match replay. */
void
BM_HashJoinFlat(benchmark::State &state)
{
    const JoinData &jd = joinData();
    size_t pairs = 0;
    for (auto _ : state) {
        FlatMultiMap ht;
        flatJoinBuild(ht, jd);
        std::vector<uint32_t> lsel, rsel;
        lsel.reserve(kRows);
        rsel.reserve(kRows);
        flatJoinProbe(ht, jd, lsel, rsel);
        pairs = lsel.size();
        benchmark::DoNotOptimize(lsel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, (kRows + kBuildRows) * 8);
    state.counters["pairs"] = double(pairs);
}
BENCHMARK(BM_HashJoinFlat)->Repetitions(3);

/**
 * Morsel-parallel probe over a serially built table (build order
 * defines match replay order, so it stays single-threaded); per-morsel
 * pair lists concatenate in morsel order. Arg = worker count.
 */
void
BM_HashJoinMorsel(benchmark::State &state)
{
    const JoinData &jd = joinData();
    WorkerPool pool(unsigned(state.range(0)));
    struct Part
    {
        std::vector<uint32_t> lsel, rsel;
    };
    size_t pairs = 0;
    for (auto _ : state) {
        FlatMultiMap ht;
        flatJoinBuild(ht, jd);
        auto parts = morselMap<Part>(
            &pool, kRows, kDefaultMorselRows,
            [&](size_t, size_t begin, size_t end) {
                Part p;
                flatJoinProbeRange(ht, jd, begin, end, p.lsel, p.rsel);
                return p;
            });
        std::vector<uint32_t> lsel, rsel;
        size_t np = 0;
        for (const Part &p : parts)
            np += p.lsel.size();
        lsel.reserve(np);
        rsel.reserve(np);
        for (const Part &p : parts) {
            lsel.insert(lsel.end(), p.lsel.begin(), p.lsel.end());
            rsel.insert(rsel.end(), p.rsel.begin(), p.rsel.end());
        }
        pairs = lsel.size();
        benchmark::DoNotOptimize(lsel.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows));
    setBytes(state, (kRows + kBuildRows) * 8);
    state.counters["pairs"] = double(pairs);
}
BENCHMARK(BM_HashJoinMorsel)->Arg(1)->Arg(2)->Arg(4)->Repetitions(3);

// ----------------------------------------------------------- LLC replay

/**
 * Repetitions of each LLC benchmark. Their ratios divide by the fastest
 * repetition of BM_LlcReplayRef, which swung 1.6x at 3 repetitions.
 */
constexpr int kLlcRepetitions = 9;

/** The CAT allocations bench/e2e's tpch_sf300 replays, in its order. */
constexpr int kReplayMb[] = {40, 2, 20};

/**
 * 1M-address TPC-H-shaped trace: six of seven accesses hit a 12 MB
 * working-buffer region with Zipf skew, the seventh streams through
 * fresh base data.
 */
const std::vector<uint64_t> &
replayTrace()
{
    static const std::vector<uint64_t> addrs = [] {
        Rng rng(11);
        ZipfSampler hot((12ull << 20) / 64, 0.9);
        std::vector<uint64_t> a;
        a.reserve(kRows);
        uint64_t scan = 1ull << 32;
        for (size_t i = 0; i < kRows; ++i)
            a.push_back(i % 7 == 6 ? (scan += 64) : hot(rng) * 64);
        return a;
    }();
    return addrs;
}

/**
 * Miss rate past the first tenth of replayTrace() through a fresh
 * `Llc` per allocation, summed over kReplayMb.
 */
template <class Llc>
void
accessLoop(benchmark::State &state)
{
    const auto &addrs = replayTrace();
    const auto warm = size_t(double(addrs.size()) * 0.1);
    double sum = 0;
    for (auto _ : state) {
        sum = 0;
        for (int mb : kReplayMb) {
            Llc llc;
            llc.setTotalAllocationMb(mb);
            uint64_t misses = 0;
            for (size_t i = 0; i < addrs.size(); ++i)
                if (!llc.access(socketOfAddr(addrs[i]), addrs[i]) &&
                    i >= warm)
                    ++misses;
            sum += double(misses) / double(addrs.size() - warm);
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(addrs.size() * std::size(kReplayMb)));
    state.counters["miss_rate_sum"] = sum;
}

/** Reference: every access through the interleaved-row LLC. */
void
BM_LlcReplayRef(benchmark::State &state)
{
    accessLoop<ReferenceLlc>(state);
}
BENCHMARK(BM_LlcReplayRef)->Repetitions(kLlcRepetitions);

/** The same loop through LlcSim::access, the live feed's path. */
void
BM_LlcAccess(benchmark::State &state)
{
    accessLoop<LlcSim>(state);
}
BENCHMARK(BM_LlcAccess)->Repetitions(kLlcRepetitions);

/** ShardedTrace::replayMissRate, serial (no pool), same allocations. */
void
BM_LlcReplay(benchmark::State &state)
{
    AccessTrace recorded(kRows + 1);
    for (uint64_t a : replayTrace())
        recorded.add(a);
    const ShardedTrace trace(std::move(recorded));
    double sum = 0;
    for (auto _ : state) {
        sum = 0;
        for (int mb : kReplayMb)
            sum += trace.replayMissRate(mb);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kRows * std::size(kReplayMb)));
    state.counters["miss_rate_sum"] = sum;
}
BENCHMARK(BM_LlcReplay)->Repetitions(kLlcRepetitions);

} // namespace
} // namespace dbsens
