#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "core/logging.h"
#include "core/worker_pool.h"
#include "exec/flat_hash.h"
#include "exec/morsel.h"

namespace dbsens {

namespace {

// Per-row instruction weights (calibration; see DESIGN.md Section 3).
// kInstrScale lifts the vectorized-kernel baseline to commercial-
// engine per-tuple costs (expression services, metadata, memory
// management) so query times sit at 1/K of the paper's.
constexpr double kInstrScale = 8.0;
constexpr double kScanBaseInstr = 1.2 * kInstrScale;
constexpr double kScanPerColInstr = 0.9 * kInstrScale;
constexpr double kFilterBaseInstr = 0.8 * kInstrScale;
constexpr double kFilterPerNodeInstr = 0.35 * kInstrScale;
constexpr double kProjectPerNodeInstr = 0.5 * kInstrScale;
constexpr double kBuildPerRowInstr = 7.0 * kInstrScale;
constexpr double kProbePerRowInstr = 5.0 * kInstrScale;
constexpr double kJoinPerKeyInstr = 2.0 * kInstrScale;
constexpr double kEmitPerRowInstr = 1.2 * kInstrScale;
constexpr double kNlProbeInstr = 28.0 * kInstrScale;
constexpr double kNlMatchInstr = 8.0 * kInstrScale;
constexpr double kAggPerRowInstr = 3.0 * kInstrScale;
constexpr double kAggPerAggInstr = 1.5 * kInstrScale;
constexpr double kSortPerCmpInstr = 1.6 * kInstrScale;

uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
    return h * 0xff51afd7ed558ccdULL;
}

std::string
joinKeyLabel(const std::vector<std::string> &keys)
{
    std::string s;
    for (const auto &k : keys) {
        if (!s.empty())
            s += ",";
        s += k;
    }
    return s;
}

ColumnVector
emptyLike(const ColumnVector &src)
{
    switch (src.type()) {
      case TypeId::Int64: return ColumnVector::ints(src.name());
      case TypeId::Double: return ColumnVector::doubles(src.name());
      case TypeId::String:
        return ColumnVector::strings(src.name(), src.dict());
    }
    return ColumnVector::ints(src.name());
}

/** Comparator over sort keys; strings compare lexicographically. */
struct SortComparator
{
    std::vector<const ColumnVector *> cols;
    std::vector<bool> desc;

    bool
    operator()(uint32_t a, uint32_t b) const
    {
        for (size_t k = 0; k < cols.size(); ++k) {
            const ColumnVector &c = *cols[k];
            int r = 0;
            if (c.type() == TypeId::String) {
                const std::string &sa = c.stringAt(a);
                const std::string &sb = c.stringAt(b);
                r = sa.compare(sb);
            } else {
                const double va = c.numericAt(a);
                const double vb = c.numericAt(b);
                r = va < vb ? -1 : (va > vb ? 1 : 0);
            }
            if (r != 0)
                return desc[k] ? r > 0 : r < 0;
        }
        return a < b; // stable tie-break
    }
};

} // namespace

void
Executor::record(OpProfile op)
{
    if (ctx_.profile)
        ctx_.profile->ops.push_back(std::move(op));
}

void
Executor::bindParams(const PlanNode &n)
{
    for (const auto &p : n.paramSubplans) {
        Chunk result = run(*p.plan);
        if (result.rows() != 1 || result.columnCount() != 1)
            panic("scalar subquery for param '" + p.name +
                  "' did not yield exactly one value");
        ctx_.params[p.name] = result.col(0).valueAt(0);
    }
}

Chunk
Executor::run(const PlanNode &node)
{
    // Children first (their op records land in execution order),
    // then any scalar-subquery params, then this node.
    switch (node.kind) {
      case PlanKind::Scan:
        bindParams(node);
        return execScan(node);
      case PlanKind::Filter: {
        Chunk in = run(*node.children[0]);
        bindParams(node);
        return execFilter(node, std::move(in));
      }
      case PlanKind::Project: {
        Chunk in = run(*node.children[0]);
        bindParams(node);
        return execProject(node, std::move(in));
      }
      case PlanKind::HashJoin: {
        Chunk left = run(*node.children[0]);
        Chunk right = run(*node.children[1]);
        bindParams(node);
        return execHashJoin(node, std::move(left), std::move(right));
      }
      case PlanKind::IndexNLJoin: {
        Chunk left = run(*node.children[0]);
        bindParams(node);
        return execIndexNLJoin(node, std::move(left));
      }
      case PlanKind::Aggregate: {
        Chunk in = run(*node.children[0]);
        bindParams(node);
        return execAggregate(node, std::move(in));
      }
      case PlanKind::Sort: {
        Chunk in = run(*node.children[0]);
        bindParams(node);
        return execSort(node, std::move(in), 0);
      }
      case PlanKind::TopN: {
        Chunk in = run(*node.children[0]);
        bindParams(node);
        return execSort(node, std::move(in), node.limit);
      }
      case PlanKind::Exchange: {
        Chunk in = run(*node.children[0]);
        return execExchange(node, std::move(in));
      }
    }
    panic("unknown plan kind");
}

Chunk
Executor::execScan(const PlanNode &n)
{
    if (!ctx_.resolver)
        panic("scan without a table resolver");
    const TableHandle &th = ctx_.resolver->find(n.table);
    const TableData &data = *th.data;
    const Schema &schema = data.schema();

    OpProfile op;
    op.label = "Scan(" + n.table + ")";
    op.rowsIn = data.rowCount();

    // Build output columns.
    Chunk out;
    std::vector<const ColumnData *> src;
    std::vector<ColumnId> src_ids;
    for (const auto &cname : n.columns) {
        const ColumnId cid = schema.indexOf(cname);
        const ColumnData &cd = data.column(cid);
        src.push_back(&cd);
        src_ids.push_back(cid);
        const std::string out_name = n.columnPrefix + cname;
        switch (cd.type()) {
          case TypeId::Int64:
            out.addColumn(ColumnVector::ints(out_name));
            break;
          case TypeId::Double:
            out.addColumn(ColumnVector::doubles(out_name));
            break;
          case TypeId::String:
            out.addColumn(ColumnVector::strings(out_name, &cd.dict()));
            break;
        }
        out.col(out.columnCount() - 1).reserve(data.rowCount());
    }

    // Sampled cache touch addresses, one per referenced column.
    auto touchRow = [&](RowId r) {
        for (size_t c = 0; c < src.size(); ++c) {
            uint64_t addr = 0;
            if (th.columnStore) {
                addr = th.columnStore->cacheAddr(src_ids[c], r);
            } else if (th.ncci) {
                addr = th.ncci->compressed().cacheAddr(src_ids[c], r);
            } else if (th.rowStore) {
                addr = th.rowStore->cacheAddrOfRow(r);
            }
            if (addr)
                touch(addr, op);
        }
    };
    const RowId nrows = data.rowCount();
    if (data.liveRows() == nrows) {
        // No deletes: whole-column copies, then every stride-th row's
        // touches (the same rows and order as the general path).
        for (size_t c = 0; c < src.size(); ++c) {
            auto &dst = out.col(c);
            if (src[c]->type() == TypeId::Double) {
                const std::vector<double> &s = src[c]->doubleData();
                dst.doubles().assign(s.begin(), s.begin() + nrows);
            } else {
                const std::vector<int64_t> &s = src[c]->intData();
                dst.ints().assign(s.begin(), s.begin() + nrows);
            }
        }
        for (RowId r = 0; r < nrows; r += kScanTouchStride)
            touchRow(r);
    } else {
        // Visible rows, then column-at-a-time copies (one type
        // dispatch per column instead of one per cell).
        std::vector<RowId> alive;
        alive.reserve(size_t(nrows));
        for (RowId r = 0; r < nrows; ++r)
            if (!data.isDeleted(r))
                alive.push_back(r);
        for (size_t c = 0; c < src.size(); ++c) {
            auto &dst = out.col(c);
            if (src[c]->type() == TypeId::Double) {
                const std::vector<double> &s = src[c]->doubleData();
                auto &d = dst.doubles();
                for (RowId r : alive)
                    d.push_back(s[r]);
            } else {
                const std::vector<int64_t> &s = src[c]->intData();
                auto &d = dst.ints();
                for (RowId r : alive)
                    d.push_back(s[r]);
            }
        }
        // Touches in the same (row-major) order as the interleaved
        // loop produced, so the simulated cache trace is unchanged.
        for (RowId r : alive)
            if (r % kScanTouchStride == 0)
                touchRow(r);
    }

    // Buffer / I/O accounting: stream every needed segment or page.
    if (th.columnStore && th.columnStore->built()) {
        for (size_t c = 0; c < src_ids.size(); ++c)
            for (uint64_t g = 0; g < th.columnStore->rowGroups(); ++g)
                logPage(th.columnStore->segmentPage(src_ids[c], g), 1);
    } else if (th.ncci) {
        const ColumnStore &cs = th.ncci->compressed();
        for (size_t c = 0; c < src_ids.size(); ++c)
            for (uint64_t g = 0; g < cs.rowGroups(); ++g)
                logPage(cs.segmentPage(src_ids[c], g), 1);
        logPage(th.ncci->deltaPage(), 1);
    } else if (th.rowStore) {
        for (uint64_t p = 0; p < th.rowStore->pageCount(); ++p)
            logPage(th.rowStore->pageOfRow(p * th.rowStore->rowsPerPage()),
                    1);
    }

    op.rowsOut = out.rows();
    op.instructions =
        double(op.rowsIn) *
        (kScanBaseInstr + kScanPerColInstr * double(src.size()));
    record(std::move(op));
    return out;
}

Chunk
Executor::execFilter(const PlanNode &n, Chunk in)
{
    OpProfile op;
    op.label = "Filter";
    op.rowsIn = in.rows();
    const BoundExpr be(n.predicate, in, &ctx_.params);
    Chunk out = in.gather(morselFilter(be, in.rows(), ctx_.workers));
    op.rowsOut = out.rows();
    op.instructions =
        double(op.rowsIn) *
        (kFilterBaseInstr +
         kFilterPerNodeInstr * double(exprSize(*n.predicate)));
    record(std::move(op));
    return out;
}

Chunk
Executor::execProject(const PlanNode &n, Chunk in)
{
    OpProfile op;
    op.label = "Project";
    op.rowsIn = in.rows();
    Chunk out;
    out.setRows(in.rows());
    double per_row = 0;
    for (const auto &spec : n.projections) {
        if (spec.expr->kind == ExprKind::ColRef) {
            ColumnVector c = in.byName(spec.expr->column);
            c.rename(spec.alias.empty() ? spec.expr->column : spec.alias);
            out.addColumn(std::move(c));
            per_row += 0.1;
        } else {
            const BoundExpr be(spec.expr, in, &ctx_.params);
            ColumnVector c = ColumnVector::doubles(spec.alias);
            c.doubles().resize(in.rows());
            morselEval(be, in.rows(), c.doubles().data(),
                       ctx_.workers);
            out.addColumn(std::move(c));
            per_row += kProjectPerNodeInstr * exprSize(*spec.expr);
        }
    }
    op.rowsOut = out.rows();
    op.instructions = double(op.rowsIn) * per_row;
    record(std::move(op));
    return out;
}

Chunk
Executor::execHashJoin(const PlanNode &n, Chunk left, Chunk right)
{
    OpProfile build_op;
    build_op.label = "HashBuild(" + joinKeyLabel(n.rightKeys) + ")";
    build_op.rowsIn = right.rows();
    build_op.parallelizable = n.parallel;

    const size_t nkeys = n.leftKeys.size();
    if (nkeys == 0 || nkeys != n.rightKeys.size())
        panic("hash join with mismatched key lists");

    std::vector<const ColumnVector *> rkeys, lkeys;
    for (const auto &k : n.rightKeys)
        rkeys.push_back(&right.byName(k));
    for (const auto &k : n.leftKeys)
        lkeys.push_back(&left.byName(k));

    // Key encoding dispatches on column type: Double key columns hash
    // and compare the (sign-normalized) bit pattern of doubleAt —
    // intAt on a Double column would read the empty i64 vector (UB).
    // A Double on either side promotes the pair to double encoding.
    std::vector<uint8_t> key_dbl(nkeys);
    for (size_t k = 0; k < nkeys; ++k)
        key_dbl[k] = lkeys[k]->type() == TypeId::Double ||
                     rkeys[k]->type() == TypeId::Double;
    auto key_part = [](const ColumnVector &c, bool as_double,
                       size_t i) -> uint64_t {
        if (as_double) {
            double d = c.type() == TypeId::Double ? c.doubleAt(i)
                                                  : double(c.intAt(i));
            if (d == 0.0)
                d = 0.0; // -0.0 and +0.0 join as equal
            uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            return bits;
        }
        return uint64_t(c.intAt(i));
    };
    auto hash_row = [&](const std::vector<const ColumnVector *> &cols,
                        size_t i) {
        uint64_t h = 0x51ed;
        for (size_t k = 0; k < nkeys; ++k)
            h = hashCombine(h, key_part(*cols[k], key_dbl[k] != 0, i));
        return h;
    };

    // Build: flat table keyed by packed row hash; matches re-verify
    // the actual key columns (hash collisions between distinct keys).
    FlatMultiMap ht;
    ht.reserve(right.rows());
    const uint64_t build_bytes = right.bytes() + right.rows() * 16;
    VirtualRegion ht_region;
    if (ctx_.tempSpace)
        ht_region = ctx_.tempSpace->allocateScaled(
            std::max<uint64_t>(build_bytes, 64));
    // The sampled DES touches depend only on the row position (one
    // per stride), never on table state, so they hoist out of the
    // compute loop wholesale: same touch count, same order, same rng
    // draws as the historical interleaved loop — byte-identical
    // traces — and the compute loop below stays free of simulation
    // state.
    if (ht_region.valid()) {
        for (uint32_t i = 0; i < uint32_t(right.rows());
             i += uint32_t(kProbeTouchStride))
            touch(ht_region.fractionAddr(ctx_.rng.uniformReal()),
                  build_op);
    }
    // Batched hash → prefetch → insert: hides the random slot-line
    // fetch behind a batch of hashing.
    {
        uint64_t hashes[kFlatHashProbeBatch];
        const uint32_t nr = uint32_t(right.rows());
        for (uint32_t at = 0; at < nr;) {
            const uint32_t m = uint32_t(std::min(size_t(nr - at),
                                                 kFlatHashProbeBatch));
            for (uint32_t j = 0; j < m; ++j) {
                hashes[j] = hash_row(rkeys, at + j);
                ht.prefetchForInsert(hashes[j]);
            }
            for (uint32_t j = 0; j < m; ++j)
                ht.insert(hashes[j], at + j);
            at += m;
        }
    }
    build_op.instructions =
        double(right.rows()) *
        (kBuildPerRowInstr + kJoinPerKeyInstr * double(nkeys));
    build_op.memRequired = uint64_t(double(build_bytes) * 1.2);
    build_op.rowsOut = right.rows();
    record(std::move(build_op));

    OpProfile probe_op;
    probe_op.label = "HashProbe(" + joinKeyLabel(n.leftKeys) + ")";
    probe_op.rowsIn = left.rows();
    probe_op.parallelizable = n.parallel;

    auto keys_equal = [&](uint32_t li, uint32_t ri) {
        for (size_t k = 0; k < nkeys; ++k)
            if (key_part(*lkeys[k], key_dbl[k] != 0, li) !=
                key_part(*rkeys[k], key_dbl[k] != 0, ri))
                return false;
        return true;
    };

    const bool semi = n.joinType == JoinType::LeftSemi;
    const bool anti = n.joinType == JoinType::LeftAnti;
    const bool outer = n.joinType == JoinType::LeftOuter;

    // Probe touches, hoisted like the build's: position-sampled only,
    // so the DES trace matches the interleaved loop byte for byte.
    if (ht_region.valid()) {
        for (uint32_t i = 0; i < uint32_t(left.rows());
             i += uint32_t(kProbeTouchStride))
            touch(ht_region.fractionAddr(ctx_.rng.uniformReal()),
                  probe_op);
    }

    // Probe: collect matching index pairs. Each row's matches depend
    // only on that row and the (now read-only) hash table, so probing
    // morselizes: per-morsel pair lists concatenated in morsel order
    // equal the serial probe output exactly.
    struct ProbePart {
        std::vector<uint32_t> lsel, rsel;
        std::vector<uint8_t> matched;
    };
    auto probe_range = [&](size_t begin, size_t end) {
        ProbePart part;
        part.lsel.reserve(end - begin);
        if (!semi && !anti)
            part.rsel.reserve(end - begin);
        if (outer)
            part.matched.reserve(end - begin);
        // Batched hash → prefetch → probe, like the build loop above.
        uint64_t hashes[kFlatHashProbeBatch];
        for (uint32_t at = uint32_t(begin); at < uint32_t(end);) {
            const uint32_t m = uint32_t(std::min(
                end - size_t(at), kFlatHashProbeBatch));
            for (uint32_t j = 0; j < m; ++j) {
                hashes[j] = hash_row(lkeys, at + j);
                ht.prefetch(hashes[j]);
            }
            for (uint32_t j = 0; j < m; ++j) {
                const uint32_t i = at + j;
                bool any = false;
                ht.forEachMatch(hashes[j], [&](uint32_t ri) {
                    if (!keys_equal(i, ri))
                        return true;
                    any = true;
                    if (semi || anti)
                        return false; // existence settled, stop
                    part.lsel.push_back(i);
                    part.rsel.push_back(ri);
                    if (outer)
                        part.matched.push_back(1);
                    return true;
                });
                if ((semi && any) || (anti && !any)) {
                    part.lsel.push_back(i);
                } else if (outer && !any) {
                    part.lsel.push_back(i);
                    part.rsel.push_back(UINT32_MAX);
                    part.matched.push_back(0);
                }
            }
            at += m;
        }
        return part;
    };

    std::vector<uint32_t> lsel, rsel;
    std::vector<uint8_t> matched_flag;
    {
        auto parts = morselMap<ProbePart>(
            ctx_.workers, left.rows(), kDefaultMorselRows,
            [&](size_t, size_t begin, size_t end) {
                return probe_range(begin, end);
            });
        size_t np = 0;
        for (const auto &p : parts)
            np += p.lsel.size();
        lsel.reserve(np);
        rsel.reserve(np);
        matched_flag.reserve(outer ? np : 0);
        for (auto &p : parts) {
            lsel.insert(lsel.end(), p.lsel.begin(), p.lsel.end());
            rsel.insert(rsel.end(), p.rsel.begin(), p.rsel.end());
            matched_flag.insert(matched_flag.end(), p.matched.begin(),
                                p.matched.end());
        }
    }

    // Assemble output.
    Chunk out;
    for (const auto &c : left.columns()) {
        ColumnVector nc = emptyLike(c);
        nc.gatherFrom(c, lsel);
        out.addColumn(std::move(nc));
    }
    if (!semi && !anti) {
        for (const auto &c : right.columns()) {
            if (out.find(c.name()) >= 0)
                panic("join output column collision: " + c.name());
            ColumnVector nc = emptyLike(c);
            nc.reserve(rsel.size());
            if (nc.type() == TypeId::Double) {
                const auto &s = c.doubles();
                auto &d = nc.doubles();
                for (uint32_t i : rsel)
                    d.push_back(i == UINT32_MAX ? 0.0 : s[i]);
            } else {
                const auto &s = c.ints();
                auto &d = nc.ints();
                for (uint32_t i : rsel)
                    d.push_back(i == UINT32_MAX ? 0 : s[i]);
            }
            out.addColumn(std::move(nc));
        }
        if (outer) {
            ColumnVector m = ColumnVector::ints("__matched");
            m.reserve(matched_flag.size());
            for (uint8_t f : matched_flag)
                m.ints().push_back(f);
            out.addColumn(std::move(m));
        }
    }
    out.setRows(lsel.size());

    probe_op.rowsOut = out.rows();
    probe_op.instructions =
        double(left.rows()) *
            (kProbePerRowInstr + kJoinPerKeyInstr * double(nkeys)) +
        double(out.rows()) * kEmitPerRowInstr *
            double(out.columnCount());
    record(std::move(probe_op));
    return out;
}

Chunk
Executor::execIndexNLJoin(const PlanNode &n, Chunk left)
{
    if (!ctx_.resolver)
        panic("index NL join without a table resolver");
    const TableHandle &inner = ctx_.resolver->find(n.table);
    if (n.rightKeys.size() != 1 || n.leftKeys.size() != 1)
        panic("index NL join requires exactly one key");
    BTree *index = inner.indexOn(n.rightKeys[0]);
    if (!index)
        panic("no index on " + n.table + "." + n.rightKeys[0]);

    OpProfile op;
    op.label = "IndexNLJoin(" + n.table + "." + n.rightKeys[0] + ")";
    op.rowsIn = left.rows();
    op.parallelizable = n.parallel;

    const ColumnVector &probe_col = left.byName(n.leftKeys[0]);
    const TableData &data = *inner.data;
    const Schema &schema = data.schema();

    std::vector<ColumnId> fetch_ids;
    for (const auto &c : n.columns)
        fetch_ids.push_back(schema.indexOf(c));

    std::vector<uint32_t> lsel;
    std::vector<RowId> rrows;
    std::vector<PageId> touched_pages;
    double instr = 0;
    const uint64_t key_span = std::max<uint64_t>(index->entryCount(), 1);
    std::vector<uint64_t> touch_addrs;
    for (uint32_t i = 0; i < left.rows(); ++i) {
        const int64_t key = probe_col.intAt(i);
        touched_pages.clear();
        const auto rows = index->seekAll(
            key, i % kScanTouchStride == 0 ? &touched_pages : nullptr);
        instr += kNlProbeInstr + kNlMatchInstr * double(rows.size());
        if (i % kProbeTouchStride == 0) {
            touch_addrs.clear();
            index->cacheTouches(
                double(uint64_t(key) % key_span) / double(key_span),
                touch_addrs);
            for (uint64_t a : touch_addrs)
                touch(a, op);
        }
        for (PageId p : touched_pages)
            logPage(p, kScanTouchStride);
        for (RowId r : rows) {
            if (data.isDeleted(r))
                continue;
            lsel.push_back(i);
            rrows.push_back(r);
        }
    }

    // Assemble: left columns, then fetched inner columns.
    Chunk out;
    for (const auto &c : left.columns()) {
        ColumnVector nc = emptyLike(c);
        nc.gatherFrom(c, lsel);
        out.addColumn(std::move(nc));
    }
    for (size_t c = 0; c < fetch_ids.size(); ++c) {
        const ColumnData &cd = data.column(fetch_ids[c]);
        const std::string out_name = n.columnPrefix + n.columns[c];
        if (out.find(out_name) >= 0)
            panic("index NL join output column collision: " + out_name);
        ColumnVector nc =
            cd.type() == TypeId::Double
                ? ColumnVector::doubles(out_name)
                : (cd.type() == TypeId::String
                       ? ColumnVector::strings(out_name, &cd.dict())
                       : ColumnVector::ints(out_name));
        nc.reserve(rrows.size());
        for (RowId r : rrows) {
            if (cd.type() == TypeId::Double)
                nc.doubles().push_back(cd.getDouble(r));
            else
                nc.ints().push_back(cd.getInt(r));
        }
        out.addColumn(std::move(nc));
    }
    out.setRows(lsel.size());

    op.rowsOut = out.rows();
    op.instructions = instr + double(out.rows()) * kEmitPerRowInstr *
                                  double(out.columnCount());
    record(std::move(op));
    return out;
}

Chunk
Executor::execAggregate(const PlanNode &n, Chunk in)
{
    OpProfile op;
    op.label = "HashAgg";
    op.rowsIn = in.rows();
    op.parallelizable = n.parallel;

    std::vector<const ColumnVector *> key_cols;
    for (const auto &k : n.groupBy)
        key_cols.push_back(&in.byName(k));
    const size_t nkeys = key_cols.size();
    const size_t nrows = in.rows();

    // Aggregate arguments, pre-materialized column-at-a-time with the
    // vectorized kernels (same per-row operations, so identical
    // values) instead of a per-row tree walk inside the group loop.
    const size_t naggs = n.aggs.size();
    std::vector<std::vector<double>> arg_vals(naggs);
    if (nrows > 0) {
        for (size_t a = 0; a < naggs; ++a) {
            if (!n.aggs[a].arg)
                continue;
            BoundExpr be(n.aggs[a].arg, in, &ctx_.params);
            arg_vals[a].resize(nrows);
            // Morsels write disjoint output spans, so the values are
            // bitwise identical for any worker count; the group
            // accumulation below stays serial so floating-point sums
            // keep the exact serial order.
            morselEval(be, nrows, arg_vals[a].data(), ctx_.workers);
        }
    }

    struct GroupState
    {
        std::vector<double> sum;
        std::vector<double> mn;
        std::vector<double> mx;
        std::vector<uint64_t> cnt;
        std::vector<std::unordered_set<int64_t>> distinct;
    };

    // Flat open-addressing group index over packed key hashes; group
    // keys live in one flat array (nkeys values per group) instead of
    // a heap-allocated vector per group.
    FlatGroupMap index(1024);
    std::vector<int64_t> group_keys;
    std::vector<GroupState> groups;

    auto new_group = [&](const int64_t *key_parts) {
        group_keys.insert(group_keys.end(), key_parts,
                          key_parts + nkeys);
        GroupState st;
        st.sum.assign(naggs, 0.0);
        st.mn.assign(naggs, 1e300);
        st.mx.assign(naggs, -1e300);
        st.cnt.assign(naggs, 0);
        st.distinct.resize(naggs);
        groups.push_back(std::move(st));
        return groups.size() - 1;
    };

    std::vector<int64_t> key(nkeys);
    for (size_t i = 0; i < nrows; ++i) {
        uint64_t h = 0xA66;
        for (size_t k = 0; k < nkeys; ++k) {
            const ColumnVector &c = *key_cols[k];
            key[k] = c.type() == TypeId::Double
                         ? int64_t(std::llround(c.doubleAt(i)))
                         : c.intAt(i);
            h = hashCombine(h, uint64_t(key[k]));
        }
        bool inserted = false;
        const uint32_t g = index.findOrInsert(
            h, uint32_t(groups.size()),
            [&](uint32_t gid) {
                return std::equal(key.begin(), key.end(),
                                  group_keys.begin() +
                                      int64_t(size_t(gid) * nkeys));
            },
            inserted);
        if (inserted)
            new_group(key.data());
        GroupState &st = groups[g];
        for (size_t a = 0; a < naggs; ++a) {
            const AggSpec &spec = n.aggs[a];
            if (spec.fn == AggFunc::Count && !spec.arg) {
                st.cnt[a] += 1;
                continue;
            }
            const double v = arg_vals[a][i];
            switch (spec.fn) {
              case AggFunc::Sum:
              case AggFunc::Avg:
                st.sum[a] += v;
                st.cnt[a] += 1;
                break;
              case AggFunc::Min:
                st.mn[a] = std::min(st.mn[a], v);
                st.cnt[a] += 1;
                break;
              case AggFunc::Max:
                st.mx[a] = std::max(st.mx[a], v);
                st.cnt[a] += 1;
                break;
              case AggFunc::Count:
                st.cnt[a] += 1;
                break;
              case AggFunc::CountDistinct:
                st.distinct[a].insert(int64_t(std::llround(v)));
                break;
            }
        }
    }

    // Global aggregate over empty input still yields one row.
    if (n.groupBy.empty() && groups.empty())
        new_group(nullptr);

    // Emit.
    const size_t ngroups = groups.size();
    Chunk out;
    out.setRows(ngroups);
    for (size_t k = 0; k < nkeys; ++k) {
        ColumnVector nc = emptyLike(*key_cols[k]);
        nc.rename(n.groupBy[k]);
        nc.reserve(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
            const int64_t gk = group_keys[g * nkeys + k];
            if (nc.type() == TypeId::Double)
                nc.doubles().push_back(double(gk));
            else
                nc.ints().push_back(gk);
        }
        out.addColumn(std::move(nc));
    }
    for (size_t a = 0; a < naggs; ++a) {
        const AggSpec &spec = n.aggs[a];
        ColumnVector nc = ColumnVector::doubles(spec.alias);
        nc.reserve(groups.size());
        for (const auto &st : groups) {
            double v = 0;
            switch (spec.fn) {
              case AggFunc::Sum: v = st.sum[a]; break;
              case AggFunc::Avg:
                v = st.cnt[a] ? st.sum[a] / double(st.cnt[a]) : 0;
                break;
              case AggFunc::Min: v = st.cnt[a] ? st.mn[a] : 0; break;
              case AggFunc::Max: v = st.cnt[a] ? st.mx[a] : 0; break;
              case AggFunc::Count: v = double(st.cnt[a]); break;
              case AggFunc::CountDistinct:
                v = double(st.distinct[a].size());
                break;
            }
            nc.doubles().push_back(v);
        }
        out.addColumn(std::move(nc));
    }

    // Cost: hashing + state updates; memory ~ group states (compact
    // hash-agg rows; distinct sets add ~12 B per retained value).
    op.rowsOut = out.rows();
    op.instructions =
        double(nrows) * (kAggPerRowInstr +
                         kAggPerAggInstr * double(naggs) +
                         0.8 * double(key_cols.size()));
    uint64_t distinct_entries = 0;
    for (const auto &st : groups)
        for (const auto &set : st.distinct)
            distinct_entries += set.size();
    op.memRequired =
        groups.size() * (24 + 10 * naggs + 8 * key_cols.size()) +
        distinct_entries * 12;
    if (ctx_.tempSpace && !groups.empty()) {
        VirtualRegion region = ctx_.tempSpace->allocateScaled(
            std::max<uint64_t>(op.memRequired, 64));
        for (size_t i = 0; i < nrows; i += kProbeTouchStride)
            touch(region.fractionAddr(ctx_.rng.uniformReal()), op);
    }
    record(std::move(op));
    return out;
}

Chunk
Executor::execSort(const PlanNode &n, Chunk in, size_t limit)
{
    OpProfile op;
    op.label = limit ? "TopN" : "Sort";
    op.rowsIn = in.rows();
    op.parallelizable = n.parallel;

    SortComparator cmp;
    for (const auto &k : n.sortKeys) {
        cmp.cols.push_back(&in.byName(k.column));
        cmp.desc.push_back(k.desc);
    }
    std::vector<uint32_t> order(in.rows());
    for (uint32_t i = 0; i < in.rows(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), cmp);
    if (limit && order.size() > limit)
        order.resize(limit);
    Chunk out = in.gather(order);

    const double nlogn =
        double(in.rows()) *
        std::max(1.0, std::log2(double(in.rows()) + 1));
    op.instructions =
        nlogn * kSortPerCmpInstr * double(n.sortKeys.size());
    // A Top-N keeps only `limit` rows in memory; a full sort holds
    // its input.
    op.memRequired =
        limit ? limit * in.columnCount() * 8 : in.bytes();
    op.rowsOut = out.rows();
    record(std::move(op));
    return out;
}

Chunk
Executor::execExchange(const PlanNode &n, Chunk in)
{
    (void)n;
    OpProfile op;
    op.label = "Exchange";
    op.rowsIn = in.rows();
    op.rowsOut = in.rows();
    op.exchangeRows = in.rows();
    op.parallelizable = true;
    // Repartitioning streams tuples through memory: its replay stall
    // comes from these touches (hash-spray has no locality).
    op.cacheTouches = in.rows() / 12;
    record(std::move(op));
    return in;
}

} // namespace dbsens
