#include "verify/verify.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "core/digest.h"

namespace dbsens {
namespace verify {

std::string
AuditReport::summary() const
{
    if (violations.empty())
        return "ok";
    std::string s;
    for (const Violation &v : violations) {
        if (!s.empty())
            s += "\n";
        s += v.auditor + ": " + v.detail;
    }
    return s;
}

void
auditBTrees(Database &db, AuditReport &rep)
{
    for (const std::string &name : db.tableNames()) {
        Database::Table &t = db.table(name);
        for (const auto &[col, tree] : t.indexes()) {
            ++rep.btreesChecked;
            std::string err;
            if (!tree->validate(&err))
                rep.add("btree", name + "." + col + ": " + err);
        }
    }
}

void
auditBufferPool(const BufferPool &pool, AuditReport &rep)
{
    for (PageId id : pool.registeredObjects()) {
        ++rep.pagesChecked;
        if (!pool.verifyObject(id))
            rep.add("bufferpool", "checksum mismatch on object " +
                                      std::to_string(id));
    }
}

void
auditLockTable(const LockManager &locks,
               const std::vector<TxnId> &active_txns, AuditReport &rep)
{
    std::string err;
    if (!locks.auditConsistent(&err))
        rep.add("locktable", err);
    std::unordered_set<TxnId> active(active_txns.begin(),
                                     active_txns.end());
    for (TxnId txn : locks.holdingTxns())
        if (!active.count(txn))
            rep.add("locktable", "lock leak: finished txn " +
                                     std::to_string(txn) +
                                     " still holds locks");
    for (TxnId txn : locks.waitingTxns())
        if (!active.count(txn))
            rep.add("locktable", "orphan waiter: finished txn " +
                                     std::to_string(txn) +
                                     " still queued");
}

void
auditIndexes(Database &db, AuditReport &rep)
{
    for (const std::string &name : db.tableNames()) {
        Database::Table &t = db.table(name);
        for (const auto &[col, tree] : t.indexes()) {
            const ColumnData &cd = t.data->column(col);
            uint64_t entries = 0;
            bool bad = false;
            tree->scanRange(
                INT64_MIN, INT64_MAX,
                [&](int64_t key, RowId r) {
                    ++entries;
                    if (r >= t.data->rowCount() ||
                        t.data->isDeleted(r)) {
                        rep.add("index",
                                name + "." + col + ": entry (" +
                                    std::to_string(key) + ", row " +
                                    std::to_string(r) +
                                    ") points at a dead row");
                        bad = true;
                        return false;
                    }
                    if (cd.getInt(r) != key) {
                        rep.add("index",
                                name + "." + col + ": entry key " +
                                    std::to_string(key) +
                                    " != stored value " +
                                    std::to_string(cd.getInt(r)) +
                                    " at row " + std::to_string(r));
                        bad = true;
                        return false;
                    }
                    return true;
                });
            rep.indexEntriesChecked += entries;
            if (bad)
                continue;
            if (entries != tree->entryCount())
                rep.add("index", name + "." + col + ": leaf chain has " +
                                     std::to_string(entries) +
                                     " entries, tree reports " +
                                     std::to_string(tree->entryCount()));
            if (tree->entryCount() != t.data->liveRows())
                rep.add("index",
                        name + "." + col + ": " +
                            std::to_string(tree->entryCount()) +
                            " entries for " +
                            std::to_string(t.data->liveRows()) +
                            " live rows");
        }
    }
}

namespace {

inline void
mixValue(uint64_t &h, const Value &v)
{
    switch (v.type()) {
      case TypeId::Int64:
        h = fnv1aWord(h, uint64_t(v.asInt()));
        break;
      case TypeId::Double: {
        uint64_t bits;
        const double d = v.asDouble();
        std::memcpy(&bits, &d, sizeof bits);
        h = fnv1aWord(h, bits);
        break;
      }
      case TypeId::String: {
        const std::string &s = v.asString();
        h = fnv1a(s.data(), s.size(), h);
        h = fnv1aWord(h, s.size());
        break;
      }
    }
}

} // namespace

uint64_t
tableDataDigest(const Database::Table &t)
{
    // Digest over live rows only: filler/deleted RowIds contribute
    // nothing, so the oracle's padding strategy cannot skew it.
    uint64_t h = kFnvBasis;
    const TableData &d = *t.data;
    const size_t cols = d.schema().columnCount();
    for (RowId r = 0; r < d.rowCount(); ++r) {
        if (d.isDeleted(r))
            continue;
        h = fnv1aWord(h, r);
        for (ColumnId c = 0; c < ColumnId(cols); ++c)
            mixValue(h, d.column(c).get(r));
    }
    return h;
}

std::map<std::string, uint64_t>
databaseDigest(Database &db)
{
    std::map<std::string, uint64_t> out;
    for (const std::string &name : db.tableNames())
        out[name] = tableDataDigest(db.table(name));
    return out;
}

namespace {

/** Grow `t` with deleted filler rows until RowId `r` exists, keeping
 * oracle RowIds aligned with the run's (losers consume RowIds too). */
void
padToRow(Database::Table &t, RowId r)
{
    if (r == kInvalidRow || t.data->rowCount() > r)
        return;
    std::vector<Value> filler;
    filler.reserve(t.data->schema().columnCount());
    for (const ColumnDef &c : t.data->schema().columns()) {
        switch (c.type) {
          case TypeId::Int64: filler.emplace_back(int64_t(0)); break;
          case TypeId::Double: filler.emplace_back(0.0); break;
          case TypeId::String: filler.emplace_back(std::string()); break;
        }
    }
    while (t.data->rowCount() <= r) {
        const RowId f = t.data->append(filler);
        t.data->markDeleted(f);
    }
}

void
applyRecord(Database &db, const WalRecord &rec)
{
    Database::Table &t = db.table(rec.table);
    padToRow(t, rec.row);
    switch (rec.kind) {
      case WalRecord::Kind::Update:
        t.data->column(rec.column).set(rec.row, rec.after);
        break;
      case WalRecord::Kind::Insert:
        // The slot exists (real or filler): restore in place so the
        // RowId matches the run's, and indexes are maintained.
        t.restoreRow(rec.row, rec.rowImage);
        break;
      case WalRecord::Kind::Delete:
        t.deleteRow(rec.row);
        break;
      default:
        break;
    }
}

} // namespace

void
replayOracle(Database &actual, Database &oracle,
             const WalHistory &history, AuditReport &rep)
{
    // Buffer data records per transaction; apply a transaction's
    // records when its commit marker arrives (marker order is the
    // serialization order), drop them on an abort marker.
    std::unordered_map<TxnId, std::vector<const WalRecord *>> pending;
    for (const WalRecord &r : history.records()) {
        switch (r.kind) {
          case WalRecord::Kind::Commit: {
            auto it = pending.find(r.txn);
            if (it != pending.end()) {
                for (const WalRecord *rec : it->second) {
                    applyRecord(oracle, *rec);
                    ++rep.historyRecordsReplayed;
                }
                pending.erase(it);
            }
            break;
          }
          case WalRecord::Kind::Abort:
            pending.erase(r.txn);
            break;
          case WalRecord::Kind::Checkpoint:
          case WalRecord::Kind::Prepare:
          case WalRecord::Kind::Decision:
            // 2PC protocol markers carry no data images; the branch's
            // fate arrives as an ordinary Commit/Abort marker.
            break;
          default:
            pending[r.txn].push_back(&r);
            break;
        }
    }
    // Transactions still unresolved at the end of a cleanly drained
    // run hold their locks and their writes are applied in `actual`;
    // under strict 2PL those writes touch rows no later-committing
    // transaction wrote, so applying them last is order-correct.
    if (!pending.empty()) {
        for (const WalRecord &r : history.records()) {
            if (r.kind == WalRecord::Kind::Commit ||
                r.kind == WalRecord::Kind::Abort ||
                r.kind == WalRecord::Kind::Checkpoint ||
                r.kind == WalRecord::Kind::Prepare ||
                r.kind == WalRecord::Kind::Decision)
                continue;
            if (!pending.count(r.txn))
                continue;
            applyRecord(oracle, r);
            ++rep.historyRecordsReplayed;
        }
    }

    for (const std::string &name : actual.tableNames()) {
        ++rep.tablesCompared;
        const uint64_t got = tableDataDigest(actual.table(name));
        const uint64_t want = tableDataDigest(oracle.table(name));
        if (got != want) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s: state digest %016llx != oracle %016llx",
                          name.c_str(), (unsigned long long)got,
                          (unsigned long long)want);
            rep.add("oracle", buf);
        }
    }
}

} // namespace verify
} // namespace dbsens
