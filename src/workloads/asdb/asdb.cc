#include "workloads/asdb/asdb.h"

namespace dbsens {
namespace asdb {

namespace {

constexpr double kScalingTheta = 0.6; // moderate skew

/** CRUD mix (per mille). */
enum class Op : int {
    PointRead,
    RangeRead,
    Update,
    Insert,
    Delete,
    FixedRead,
};

struct MixEntry
{
    Op op;
    int weight;
};

constexpr MixEntry kMix[] = {
    {Op::PointRead, 300}, {Op::RangeRead, 150}, {Op::Update, 250},
    {Op::Insert, 150},    {Op::Delete, 50},     {Op::FixedRead, 100},
};

Op
pickOp(Rng &rng)
{
    int v = int(rng.uniform(1000));
    for (const auto &m : kMix) {
        v -= m.weight;
        if (v < 0)
            return m.op;
    }
    return Op::PointRead;
}

Schema
wideSchema(const char *prefix)
{
    const std::string p(prefix);
    // ~1 KB declared row width, like ASDB's padded rows.
    return Schema({{p + "_key", TypeId::Int64},
                   {p + "_int1", TypeId::Int64},
                   {p + "_int2", TypeId::Int64},
                   {p + "_float1", TypeId::Double},
                   {p + "_pad1", TypeId::String, 240},
                   {p + "_pad2", TypeId::String, 240},
                   {p + "_pad3", TypeId::String, 240},
                   {p + "_pad4", TypeId::String, 230}});
}

std::vector<Value>
wideRow(int64_t key, Rng &rng)
{
    // Padding drawn from a small pool: declared width drives size
    // accounting; host memory stays small.
    return {key,
            int64_t(rng.uniform(1000000)),
            int64_t(rng.uniform(1000)),
            rng.uniformReal() * 1000,
            "PAD" + std::to_string(rng.uniform(64)),
            "PAD" + std::to_string(rng.uniform(64)),
            "PAD" + std::to_string(rng.uniform(64)),
            "PAD" + std::to_string(rng.uniform(64))};
}

} // namespace

AsdbScale::AsdbScale(int sf_in) : sf(sf_in)
{
    scalingRows = uint64_t(sf) * 17;
    growingRows = scalingRows / 2;
}

std::unique_ptr<Database>
generateDb(int sf, uint64_t seed)
{
    AsdbScale sc(sf);
    auto db = std::make_unique<Database>("asdb-sf" + std::to_string(sf));
    Rng rng(seed);

    {
        TableDef def;
        def.name = "fixed";
        def.schema = wideSchema("f");
        def.expectedRows = sc.fixedRows;
        def.indexColumns = {"f_key"};
        auto &t = db->createTable(def);
        for (uint64_t i = 0; i < sc.fixedRows; ++i)
            t.data->append(wideRow(int64_t(i), rng));
    }
    {
        TableDef def;
        def.name = "scaling";
        def.schema = wideSchema("s");
        def.expectedRows = sc.scalingRows;
        def.indexColumns = {"s_key"};
        auto &t = db->createTable(def);
        for (uint64_t i = 0; i < sc.scalingRows; ++i)
            t.data->append(wideRow(int64_t(i), rng));
    }
    {
        TableDef def;
        def.name = "growing";
        def.schema = wideSchema("g");
        def.expectedRows = sc.growingRows * 3;
        def.indexColumns = {"g_key"};
        auto &t = db->createTable(def);
        for (uint64_t i = 0; i < sc.growingRows; ++i)
            t.data->append(wideRow(int64_t(i), rng));
    }

    db->finishLoad();
    return db;
}

void
AsdbWorkload::startSessions(SimRun &run, Database &db, uint64_t seed)
{
    const AsdbScale sc(sf_);
    nextGrowKey_ = int64_t(sc.growingRows);
    growHead_ = 0;
    for (int s = 0; s < sessions_; ++s)
        run.loop.spawn(session(run, db, seed ^ (uint64_t(s) << 18)));
}

Task<void>
AsdbWorkload::session(SimRun &run, Database &db, uint64_t seed)
{
    Rng rng(seed);
    const AsdbScale sc(sf_);
    ZipfSampler scaling_zipf(sc.scalingRows, kScalingTheta);

    auto &fixed = db.table("fixed");
    auto &scaling = db.table("scaling");
    auto &growing = db.table("growing");

    int admit_streak = 0;
    while (run.running()) {
        // Resilience admission: at the admission rung transactions
        // are deferred (not dropped) with a deterministic capped-
        // exponential backoff; OLTP-priority bypasses the bucket.
        if (run.resil && !run.resil->admitWork(kTenantOltp)) {
            co_await SimDelay(
                run.loop, run.resil->admitRetryDelay(++admit_streak));
            continue;
        }
        admit_streak = 0;
        const Op op = pickOp(rng);
        // Victim retry policy: a failed attempt (lock timeout or
        // absent key) is retried up to txnRetryLimit times with
        // capped exponential backoff before the session gives up.
        for (int attempt = 0;; ++attempt) {
            TxnCtx tx(run, run.allocTxnId());
            bool ok = true;
            RowId row = kInvalidRow;

            switch (op) {
              case Op::PointRead: {
                const int64_t key = int64_t(scaling_zipf(rng));
                ok = co_await tx.seekRow(scaling, "s_key", key,
                                         LockMode::S, &row);
                break;
              }
              case Op::RangeRead: {
                const int64_t key = int64_t(scaling_zipf(rng));
                co_await tx.scanIndexRange(scaling, "s_key", key,
                                           key + 50, 50);
                break;
              }
              case Op::Update: {
                const int64_t key = int64_t(scaling_zipf(rng));
                ok = co_await tx.seekRow(scaling, "s_key", key,
                                         LockMode::U, &row);
                if (ok && row != kInvalidRow) {
                    ok = co_await tx.lockRow(scaling, row, LockMode::X);
                    if (ok)
                        co_await tx.updateRow(
                            scaling, row, "s_int1",
                            Value(int64_t(rng.uniform(1000000))));
                }
                break;
              }
              case Op::Insert: {
                const int64_t key = nextGrowKey_++;
                std::vector<Value> vals = wideRow(key, rng);
                co_await tx.insertRow(growing, vals);
                break;
              }
              case Op::Delete: {
                // Delete from the head of the growing table (oldest).
                if (growHead_ < nextGrowKey_ - 1) {
                    const int64_t key = growHead_++;
                    ok = co_await tx.seekRow(growing, "g_key", key,
                                             LockMode::U, &row);
                    if (ok && row != kInvalidRow) {
                        ok = co_await tx.lockRow(growing, row, LockMode::X);
                        if (ok)
                            co_await tx.deleteRow(growing, row);
                    }
                }
                break;
              }
              case Op::FixedRead: {
                const int64_t key = int64_t(rng.uniform(sc.fixedRows));
                ok = co_await tx.seekRow(fixed, "f_key", key, LockMode::S,
                                         &row);
                // ASDB's CPU-heavy lookup flavour.
                tx.charge(oltpcost::kRowReadInstr * 10);
                break;
              }
            }

            if (ok) {
                co_await tx.commit();
                break;
            }
            co_await tx.rollback();
            if (attempt < run.config().txnRetryLimit) {
                ++run.txnsRetried;
                co_await SimDelay(run.loop,
                                  victimRetryBackoff(rng, attempt + 1));
                continue;
            }
            if (run.config().txnRetryLimit > 0)
                ++run.txnsGivenUp;
            co_await SimDelay(run.loop, retryBackoff(rng));
            break;
        }
    }
}

} // namespace asdb
} // namespace dbsens
