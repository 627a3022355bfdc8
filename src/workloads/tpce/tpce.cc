#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace tpce {

namespace {

/**
 * Access skew (Zipf theta). Kept moderate: with theta near 1 the hot
 * head barely spreads as the table grows, but the paper's Table 3
 * shows LOCK waits dropping to 0.15x at 3x scale — contention must
 * thin out roughly with row count, as it does for mild skew.
 */
constexpr double kAccountTheta = 0.5;
constexpr double kSecurityTheta = 0.5;

/** Transaction mix weights (TPC-E spec proportions, x1000). */
enum class TxnType : int {
    TradeOrder,
    TradeResult,
    TradeLookup,
    TradeUpdate,
    TradeStatus,
    CustomerPosition,
    MarketFeed,
    MarketWatch,
    SecurityDetail,
    BrokerVolume,
};

struct MixEntry
{
    TxnType type;
    int weight; // per mille
};

constexpr MixEntry kMix[] = {
    {TxnType::TradeOrder, 101},  {TxnType::TradeResult, 100},
    {TxnType::TradeLookup, 80},  {TxnType::TradeUpdate, 20},
    {TxnType::TradeStatus, 190}, {TxnType::CustomerPosition, 130},
    {TxnType::MarketFeed, 10},   {TxnType::MarketWatch, 180},
    {TxnType::SecurityDetail, 140}, {TxnType::BrokerVolume, 49},
};

TxnType
pickTxn(Rng &rng)
{
    int total = 0;
    for (const auto &m : kMix)
        total += m.weight;
    int v = int(rng.uniform(uint64_t(total)));
    for (const auto &m : kMix) {
        v -= m.weight;
        if (v < 0)
            return m.type;
    }
    return TxnType::TradeStatus;
}

} // namespace

TpceScale::TpceScale(int sf_in) : sf(sf_in)
{
    customers = uint64_t(sf);
    accounts = customers * 5;
    brokers = customers / 100 + 1;
    securities = customers * 685 / 1000 + 1;
    trades = customers * 82;
    holdings = accounts * 3;
}

std::unique_ptr<Database>
generateDb(int sf, uint64_t seed, bool with_ncci)
{
    TpceScale sc(sf);
    auto db = std::make_unique<Database>("tpce-sf" + std::to_string(sf));
    Rng rng(seed);

    // Hot tables first: prewarm fills in registration order.
    {
        TableDef def;
        def.name = "last_trade";
        def.schema = Schema({{"lt_s_id", TypeId::Int64},
                             {"lt_price", TypeId::Double},
                             {"lt_vol", TypeId::Int64},
                             {"lt_dts", TypeId::Int64}});
        def.expectedRows = sc.securities;
        def.indexColumns = {"lt_s_id"};
        auto &t = db->createTable(def);
        for (uint64_t s = 0; s < sc.securities; ++s)
            t.data->append({int64_t(s),
                            20.0 + double(rng.uniform(10000)) / 100,
                            int64_t(0), int64_t(0)});
    }
    {
        TableDef def;
        def.name = "security";
        def.schema = Schema({{"s_id", TypeId::Int64},
                             {"s_symb", TypeId::String, 8},
                             {"s_name", TypeId::String, 30},
                             {"s_ex", TypeId::String, 6},
                             {"s_issue", TypeId::String, 30}});
        def.expectedRows = sc.securities;
        def.indexColumns = {"s_id"};
        auto &t = db->createTable(def);
        static const char *exchanges[] = {"NYSE", "NASDAQ", "AMEX",
                                          "PCX"};
        for (uint64_t s = 0; s < sc.securities; ++s)
            t.data->append({int64_t(s), "SYM" + std::to_string(s),
                            rng.text(12), exchanges[rng.uniform(4)],
                            rng.text(10)});
    }
    {
        TableDef def;
        def.name = "broker";
        def.schema = Schema({{"b_id", TypeId::Int64},
                             {"b_name", TypeId::String, 24},
                             {"b_num_trades", TypeId::Int64},
                             {"b_volume", TypeId::Double}});
        def.expectedRows = sc.brokers;
        def.indexColumns = {"b_id"};
        auto &t = db->createTable(def);
        for (uint64_t b = 0; b < sc.brokers; ++b)
            t.data->append({int64_t(b), "Broker#" + std::to_string(b),
                            int64_t(0), 0.0});
    }
    {
        TableDef def;
        def.name = "customer";
        def.schema = Schema({{"c_id", TypeId::Int64},
                             {"c_name", TypeId::String, 24},
                             {"c_tier", TypeId::Int64},
                             {"c_area", TypeId::String, 60}});
        def.expectedRows = sc.customers;
        def.indexColumns = {"c_id"};
        auto &t = db->createTable(def);
        for (uint64_t c = 0; c < sc.customers; ++c)
            t.data->append({int64_t(c), "Cust#" + std::to_string(c),
                            int64_t(rng.uniform(3)) + 1,
                            rng.text(8)});
    }
    {
        TableDef def;
        def.name = "account";
        def.schema = Schema({{"ca_id", TypeId::Int64},
                             {"ca_c_id", TypeId::Int64},
                             {"ca_b_id", TypeId::Int64},
                             {"ca_bal", TypeId::Double},
                             {"ca_name", TypeId::String, 40}});
        def.expectedRows = sc.accounts;
        def.indexColumns = {"ca_id"};
        auto &t = db->createTable(def);
        for (uint64_t a = 0; a < sc.accounts; ++a)
            t.data->append({int64_t(a), int64_t(a / 5),
                            int64_t(a % sc.brokers),
                            10000.0 + double(rng.uniform(1000000)) / 100,
                            rng.text(10)});
    }
    {
        TableDef def;
        def.name = "holding";
        def.schema = Schema({{"h_ca_id", TypeId::Int64},
                             {"h_s_id", TypeId::Int64},
                             {"h_qty", TypeId::Int64},
                             {"h_price", TypeId::Double}});
        def.expectedRows = sc.holdings + sc.trades / 4;
        def.indexColumns = {"h_ca_id"};
        auto &t = db->createTable(def);
        for (uint64_t a = 0; a < sc.accounts; ++a)
            for (int i = 0; i < 3; ++i)
                t.data->append({int64_t(a),
                                int64_t(rng.uniform(sc.securities)),
                                int64_t(rng.uniform(800)) + 100,
                                20.0 + double(rng.uniform(10000)) / 100});
    }
    {
        TableDef def;
        def.name = "trade";
        def.schema = Schema({{"t_id", TypeId::Int64},
                             {"t_dts", TypeId::Int64},
                             {"t_ca_id", TypeId::Int64},
                             {"t_s_id", TypeId::Int64},
                             {"t_qty", TypeId::Int64},
                             {"t_price", TypeId::Double},
                             {"t_chrg", TypeId::Double},
                             {"t_status", TypeId::String, 4},
                             {"t_type", TypeId::String, 3}});
        def.expectedRows = sc.trades * 2; // grows during the run
        def.indexColumns = {"t_id", "t_ca_id"};
        def.columnstoreIndex = with_ncci;
        auto &t = db->createTable(def);
        ZipfSampler acct_zipf(sc.accounts, kAccountTheta);
        ZipfSampler sec_zipf(sc.securities, kSecurityTheta);
        for (uint64_t i = 0; i < sc.trades; ++i)
            t.data->append(
                {int64_t(i), int64_t(i), int64_t(acct_zipf(rng)),
                 int64_t(sec_zipf(rng)), int64_t(rng.uniform(800)) + 100,
                 20.0 + double(rng.uniform(10000)) / 100,
                 double(rng.uniform(5000)) / 100,
                 rng.chance(0.95) ? "CMPT" : "SBMT",
                 rng.chance(0.5) ? "B" : "S"});
    }

    db->finishLoad();
    return db;
}

void
TpceWorkload::startSessions(SimRun &run, Database &db, uint64_t seed)
{
    nextTradeId_ = db.table("trade").data->rowCount();
    for (int s = 0; s < sessions_; ++s)
        run.loop.spawn(session(run, db, seed ^ (uint64_t(s) << 20)));
}

Task<void>
TpceWorkload::session(SimRun &run, Database &db, uint64_t seed)
{
    Rng rng(seed);
    const TpceScale sc(sf_);
    ZipfSampler acct_zipf(sc.accounts, kAccountTheta);
    ZipfSampler sec_zipf(sc.securities, kSecurityTheta);
    ZipfSampler cust_zipf(sc.customers, kAccountTheta);

    auto &trade = db.table("trade");
    auto &account = db.table("account");
    auto &security = db.table("security");
    auto &last_trade = db.table("last_trade");
    auto &holding = db.table("holding");
    auto &broker = db.table("broker");
    auto &customer = db.table("customer");

    // One attempt at `type`: false on a lock timeout or an absent key.
    auto attempt = [&](TxnCtx &tx, TxnType type) -> Task<bool> {
        bool ok = true;
        RowId row = kInvalidRow;
        switch (type) {
          case TxnType::TradeOrder: {
            const int64_t acct = int64_t(acct_zipf(rng));
            const int64_t sec = int64_t(sec_zipf(rng));
            ok = co_await tx.seekRow(account, "ca_id", acct,
                                     LockMode::S, &row);
            if (ok)
                ok = co_await tx.seekRow(security, "s_id", sec,
                                         LockMode::S, &row);
            if (ok)
                ok = co_await tx.seekRow(last_trade, "lt_s_id", sec,
                                         LockMode::S, &row);
            if (ok) {
                const double price =
                    last_trade.data->column("lt_price").getDouble(row);
                const int64_t tid = int64_t(nextTradeId_++);
                std::vector<Value> vals{
                    tid, int64_t(run.loop.now() / 1000), acct, sec,
                    int64_t(rng.uniform(800)) + 100, price,
                    double(rng.uniform(5000)) / 100, "SBMT",
                    rng.chance(0.5) ? "B" : "S"};
                co_await tx.insertRow(trade, vals);
                // Pending-trade count on the broker: a hot row shared
                // by ~100 customers (the serialization point whose
                // pain shrinks as the broker table scales).
                const int64_t bid = acct % int64_t(sc.brokers);
                RowId brow;
                ok = co_await tx.seekRow(broker, "b_id", bid,
                                         LockMode::U, &brow);
                if (ok && brow != kInvalidRow) {
                    ok = co_await tx.lockRow(broker, brow,
                                             LockMode::X);
                    if (ok) {
                        const int64_t n =
                            broker.data->column("b_num_trades")
                                .getInt(brow);
                        co_await tx.updateRow(broker, brow,
                                              "b_num_trades",
                                              Value(n + 1));
                    }
                }
            }
            break;
          }
          case TxnType::TradeResult: {
            // Complete a recently submitted trade.
            const uint64_t back = 1 + rng.uniform(2000);
            const int64_t tid =
                int64_t(nextTradeId_ > back ? nextTradeId_ - back : 0);
            ok = co_await tx.seekRow(trade, "t_id", tid, LockMode::U,
                                     &row);
            if (ok && row != kInvalidRow) {
                ok = co_await tx.lockRow(trade, row, LockMode::X);
                if (ok) {
                    co_await tx.updateRow(trade, row, "t_status",
                                          Value("CMPT"));
                    const int64_t acct =
                        trade.data->column("t_ca_id").getInt(row);
                    RowId arow;
                    ok = co_await tx.seekRow(account, "ca_id", acct,
                                             LockMode::U, &arow);
                    if (ok && arow != kInvalidRow) {
                        ok = co_await tx.lockRow(account, arow,
                                                 LockMode::X);
                        if (ok) {
                            const double bal =
                                account.data->column("ca_bal")
                                    .getDouble(arow);
                            co_await tx.updateRow(account, arow,
                                                  "ca_bal",
                                                  Value(bal + 1.0));
                            // Broker stats (hot rows: few brokers).
                            const int64_t bid =
                                account.data->column("ca_b_id")
                                    .getInt(arow);
                            RowId brow;
                            ok = co_await tx.seekRow(broker, "b_id",
                                                     bid, LockMode::U,
                                                     &brow);
                            if (ok && brow != kInvalidRow) {
                                ok = co_await tx.lockRow(
                                    broker, brow, LockMode::X);
                                if (ok) {
                                    const int64_t n =
                                        broker.data
                                            ->column("b_num_trades")
                                            .getInt(brow);
                                    co_await tx.updateRow(
                                        broker, brow, "b_num_trades",
                                        Value(n + 1));
                                }
                            }
                        }
                    }
                }
            }
            break;
          }
          case TxnType::TradeLookup: {
            // Uniform over all trades: cold pages at large SF.
            for (int i = 0; ok && i < 4; ++i) {
                const int64_t tid =
                    int64_t(rng.uniform(nextTradeId_ ? nextTradeId_
                                                     : 1));
                ok = co_await tx.seekRow(trade, "t_id", tid,
                                         LockMode::S, &row);
                if (row == kInvalidRow)
                    break;
            }
            break;
          }
          case TxnType::TradeUpdate: {
            for (int i = 0; ok && i < 2; ++i) {
                const int64_t tid =
                    int64_t(rng.uniform(nextTradeId_ ? nextTradeId_
                                                     : 1));
                ok = co_await tx.seekRow(trade, "t_id", tid,
                                         LockMode::U, &row);
                if (!ok || row == kInvalidRow)
                    break;
                ok = co_await tx.lockRow(trade, row, LockMode::X);
                if (ok)
                    co_await tx.updateRow(
                        trade, row, "t_chrg",
                        Value(double(rng.uniform(5000)) / 100));
            }
            break;
          }
          case TxnType::TradeStatus: {
            const int64_t acct = int64_t(acct_zipf(rng));
            co_await tx.scanIndexRange(trade, "t_ca_id", acct, acct,
                                       50);
            break;
          }
          case TxnType::CustomerPosition: {
            const int64_t cust = int64_t(cust_zipf(rng));
            ok = co_await tx.seekRow(customer, "c_id", cust,
                                     LockMode::S, &row);
            for (int i = 0; ok && i < 5; ++i) {
                const int64_t acct = cust * 5 + i;
                if (uint64_t(acct) >= sc.accounts)
                    break;
                ok = co_await tx.seekRow(account, "ca_id", acct,
                                         LockMode::S, &row);
                if (ok)
                    co_await tx.scanIndexRange(holding, "h_ca_id",
                                               acct, acct, 20);
            }
            break;
          }
          case TxnType::MarketFeed: {
            // Hot exclusive updates of last_trade.
            for (int i = 0; ok && i < 10; ++i) {
                const int64_t sec = int64_t(sec_zipf(rng));
                ok = co_await tx.seekRow(last_trade, "lt_s_id", sec,
                                         LockMode::U, &row);
                if (!ok || row == kInvalidRow)
                    break;
                ok = co_await tx.lockRow(last_trade, row, LockMode::X);
                if (ok)
                    co_await tx.updateRow(
                        last_trade, row, "lt_price",
                        Value(20.0 + double(rng.uniform(10000)) / 100));
            }
            break;
          }
          case TxnType::MarketWatch: {
            for (int i = 0; ok && i < 20; ++i) {
                const int64_t sec = int64_t(sec_zipf(rng));
                ok = co_await tx.seekRow(last_trade, "lt_s_id", sec,
                                         LockMode::S, &row);
            }
            break;
          }
          case TxnType::SecurityDetail: {
            const int64_t sec = int64_t(sec_zipf(rng));
            ok = co_await tx.seekRow(security, "s_id", sec,
                                     LockMode::S, &row);
            if (ok)
                ok = co_await tx.seekRow(last_trade, "lt_s_id", sec,
                                         LockMode::S, &row);
            break;
          }
          case TxnType::BrokerVolume: {
            co_await tx.scanIndexRange(broker, "b_id", 0,
                                       int64_t(sc.brokers), 40);
            break;
          }
        }
        co_return ok;
    };
    co_await oltpSession(run, rng, pickTxn, attempt);
}

} // namespace tpce
} // namespace dbsens
