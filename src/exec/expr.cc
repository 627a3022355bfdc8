#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <numeric>

#include "core/logging.h"

namespace dbsens {

// ------------------------------------------------------------- builders

namespace {

std::shared_ptr<Expr>
makeExpr(ExprKind k)
{
    auto e = std::make_shared<Expr>();
    e->kind = k;
    return e;
}

} // namespace

ExprPtr
col(const std::string &name)
{
    auto e = makeExpr(ExprKind::ColRef);
    e->column = name;
    return e;
}

ExprPtr
lit(Value v)
{
    auto e = makeExpr(ExprKind::Const);
    e->literal = std::move(v);
    return e;
}

ExprPtr
param(const std::string &name)
{
    auto e = makeExpr(ExprKind::Param);
    e->param = name;
    return e;
}

ExprPtr
cmp(CmpOp op, ExprPtr a, ExprPtr b)
{
    auto e = makeExpr(ExprKind::Cmp);
    e->cmp = op;
    e->kids = {std::move(a), std::move(b)};
    return e;
}

ExprPtr eq(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Eq, a, b); }
ExprPtr ne(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Ne, a, b); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Lt, a, b); }
ExprPtr le(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Le, a, b); }
ExprPtr gt(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Gt, a, b); }
ExprPtr ge(ExprPtr a, ExprPtr b) { return cmp(CmpOp::Ge, a, b); }

ExprPtr
between(ExprPtr x, Value lo, Value hi)
{
    return land(ge(x, lit(std::move(lo))), le(x, lit(std::move(hi))));
}

ExprPtr
land(ExprPtr a, ExprPtr b)
{
    auto e = makeExpr(ExprKind::Logic);
    e->logic = LogicOp::And;
    e->kids = {std::move(a), std::move(b)};
    return e;
}

ExprPtr
lor(ExprPtr a, ExprPtr b)
{
    auto e = makeExpr(ExprKind::Logic);
    e->logic = LogicOp::Or;
    e->kids = {std::move(a), std::move(b)};
    return e;
}

ExprPtr
lnot(ExprPtr a)
{
    auto e = makeExpr(ExprKind::Logic);
    e->logic = LogicOp::Not;
    e->kids = {std::move(a)};
    return e;
}

namespace {

ExprPtr
arith(ArithOp op, ExprPtr a, ExprPtr b)
{
    auto e = makeExpr(ExprKind::Arith);
    e->arith = op;
    e->kids = {std::move(a), std::move(b)};
    return e;
}

} // namespace

ExprPtr add(ExprPtr a, ExprPtr b) { return arith(ArithOp::Add, a, b); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return arith(ArithOp::Sub, a, b); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return arith(ArithOp::Mul, a, b); }
ExprPtr divide(ExprPtr a, ExprPtr b) { return arith(ArithOp::Div, a, b); }

ExprPtr
like(const std::string &column_name, const std::string &pattern)
{
    auto e = makeExpr(ExprKind::Like);
    e->column = column_name;
    e->pattern = pattern;
    return e;
}

ExprPtr
inList(const std::string &column_name, std::vector<std::string> items)
{
    auto e = makeExpr(ExprKind::InList);
    e->column = column_name;
    e->inStrings = std::move(items);
    return e;
}

ExprPtr
inListInt(const std::string &column_name, std::vector<int64_t> items)
{
    auto e = makeExpr(ExprKind::InList);
    e->column = column_name;
    e->inInts = std::move(items);
    return e;
}

ExprPtr
substrIn(const std::string &column_name, int pos, int len,
         std::vector<std::string> items)
{
    auto e = makeExpr(ExprKind::SubstrIn);
    e->column = column_name;
    e->substrPos = pos;
    e->substrLen = len;
    e->inStrings = std::move(items);
    return e;
}

ExprPtr
substrInt(const std::string &column_name, int pos, int len)
{
    auto e = makeExpr(ExprKind::SubstrInt);
    e->column = column_name;
    e->substrPos = pos;
    e->substrLen = len;
    return e;
}

ExprPtr
caseWhen(ExprPtr cond, ExprPtr then_e, ExprPtr else_e)
{
    auto e = makeExpr(ExprKind::CaseWhen);
    e->kids = {std::move(cond), std::move(then_e), std::move(else_e)};
    return e;
}

ExprPtr
yearOf(ExprPtr date)
{
    auto e = makeExpr(ExprKind::YearOf);
    e->kids = {std::move(date)};
    return e;
}

// --------------------------------------------------------------- helpers

bool
likeMatch(const std::string &s, const std::string &pattern)
{
    // Split the pattern into literal segments separated by '%'.
    std::vector<std::string> segs;
    std::string cur;
    for (char c : pattern) {
        if (c == '%') {
            segs.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    segs.push_back(cur);

    if (segs.size() == 1)
        return s == segs[0]; // no wildcard

    // Anchored prefix.
    size_t pos = 0;
    if (!segs.front().empty()) {
        if (s.compare(0, segs.front().size(), segs.front()) != 0)
            return false;
        pos = segs.front().size();
    }
    // Middle segments: greedy left-to-right.
    for (size_t i = 1; i + 1 < segs.size(); ++i) {
        if (segs[i].empty())
            continue;
        const size_t found = s.find(segs[i], pos);
        if (found == std::string::npos)
            return false;
        pos = found + segs[i].size();
    }
    // Anchored suffix.
    const std::string &suf = segs.back();
    if (suf.empty())
        return true;
    if (s.size() < pos + suf.size())
        return false;
    return s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

int64_t
yearOfDays(int64_t days)
{
    // Howard Hinnant's civil_from_days.
    int64_t z = days + 719468;
    const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const auto doe = uint64_t(z - era * 146097);
    const uint64_t yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const int64_t y = int64_t(yoe) + era * 400;
    const uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const uint64_t mp = (5 * doy + 2) / 153;
    const uint64_t m = mp + (mp < 10 ? 3 : -9);
    return y + (m <= 2);
}

int
exprSize(const Expr &e)
{
    int n = 1;
    for (const auto &k : e.kids)
        n += exprSize(*k);
    return n;
}

// ---------------------------------------------------------- bound nodes

struct BoundExpr::Node
{
    ExprKind kind;
    CmpOp cmp{};
    LogicOp logic{};
    ArithOp arith{};
    int32_t kid0 = -1; ///< pool indices of children
    int32_t kid1 = -1;
    int32_t kid2 = -1;
    const ColumnVector *colv = nullptr;
    Value literal;
    double literalNum = 0; ///< cached numeric view of `literal`
    std::string pattern;
    int substrPos = 0;
    int substrLen = 0;
    std::vector<std::string> inStrings;
    std::vector<int64_t> inInts;
    // String fast paths.
    bool stringCmp = false;
    int64_t constCode = -1; // literal's code in colv's dict, -1 absent
    std::vector<int64_t> inCodes;
    bool inCodesValid = false;
    // Pre-evaluated column for Like/InList (bitmaps over dict codes).
    std::vector<uint8_t> dictMatch; // per-code match flag
    std::vector<double> dictValue;  // per-code numeric (SubstrInt)
};

BoundExpr::~BoundExpr() = default;
BoundExpr::BoundExpr(BoundExpr &&) noexcept = default;
BoundExpr &BoundExpr::operator=(BoundExpr &&) noexcept = default;

namespace {

using Node = BoundExpr::Node;
using Pool = std::vector<Node>;

// ------------------------------------------------ scalar reference path

double evalNum(const Pool &pool, const Node &n, size_t i);

bool
evalB(const Pool &pool, const Node &n, size_t i)
{
    switch (n.kind) {
      case ExprKind::Logic:
        switch (n.logic) {
          case LogicOp::And:
            return evalB(pool, pool[size_t(n.kid0)], i) &&
                   evalB(pool, pool[size_t(n.kid1)], i);
          case LogicOp::Or:
            return evalB(pool, pool[size_t(n.kid0)], i) ||
                   evalB(pool, pool[size_t(n.kid1)], i);
          case LogicOp::Not:
            return !evalB(pool, pool[size_t(n.kid0)], i);
        }
        return false;
      case ExprKind::Cmp: {
        const Node &a = pool[size_t(n.kid0)];
        const Node &b = pool[size_t(n.kid1)];
        if (n.stringCmp) {
            // Fast path: column vs constant with dictionary code.
            if (a.kind == ExprKind::ColRef && b.kind == ExprKind::Const &&
                (n.cmp == CmpOp::Eq || n.cmp == CmpOp::Ne)) {
                const bool same = a.colv->intAt(i) == n.constCode;
                return n.cmp == CmpOp::Eq ? same : !same;
            }
            const std::string &sa = a.kind == ExprKind::Const
                                        ? a.literal.asString()
                                        : a.colv->stringAt(i);
            const std::string &sb = b.kind == ExprKind::Const
                                        ? b.literal.asString()
                                        : b.colv->stringAt(i);
            switch (n.cmp) {
              case CmpOp::Eq: return sa == sb;
              case CmpOp::Ne: return sa != sb;
              case CmpOp::Lt: return sa < sb;
              case CmpOp::Le: return sa <= sb;
              case CmpOp::Gt: return sa > sb;
              case CmpOp::Ge: return sa >= sb;
            }
            return false;
        }
        const double va = evalNum(pool, a, i);
        const double vb = evalNum(pool, b, i);
        switch (n.cmp) {
          case CmpOp::Eq: return va == vb;
          case CmpOp::Ne: return va != vb;
          case CmpOp::Lt: return va < vb;
          case CmpOp::Le: return va <= vb;
          case CmpOp::Gt: return va > vb;
          case CmpOp::Ge: return va >= vb;
        }
        return false;
      }
      case ExprKind::Like:
      case ExprKind::SubstrIn:
        return n.dictMatch[size_t(n.colv->intAt(i))] != 0;
      case ExprKind::InList: {
        const int64_t v = n.colv->intAt(i);
        const auto &set = n.inCodesValid ? n.inCodes : n.inInts;
        return std::find(set.begin(), set.end(), v) != set.end();
      }
      default:
        return evalNum(pool, n, i) != 0.0;
    }
}

double
evalNum(const Pool &pool, const Node &n, size_t i)
{
    switch (n.kind) {
      case ExprKind::ColRef:
        return n.colv->numericAt(i);
      case ExprKind::Const:
        return n.literalNum;
      case ExprKind::Arith: {
        const double a = evalNum(pool, pool[size_t(n.kid0)], i);
        const double b = evalNum(pool, pool[size_t(n.kid1)], i);
        switch (n.arith) {
          case ArithOp::Add: return a + b;
          case ArithOp::Sub: return a - b;
          case ArithOp::Mul: return a * b;
          case ArithOp::Div: return b != 0 ? a / b : 0.0;
        }
        return 0;
      }
      case ExprKind::CaseWhen:
        return evalB(pool, pool[size_t(n.kid0)], i)
                   ? evalNum(pool, pool[size_t(n.kid1)], i)
                   : evalNum(pool, pool[size_t(n.kid2)], i);
      case ExprKind::YearOf:
        return double(yearOfDays(
            int64_t(evalNum(pool, pool[size_t(n.kid0)], i))));
      case ExprKind::SubstrInt:
        return n.dictValue[size_t(n.colv->intAt(i))];
      default:
        return evalB(pool, n, i) ? 1.0 : 0.0;
    }
}

// --------------------------------------------------- vectorized kernels
//
// Every kernel consumes/produces strictly increasing selection
// vectors; filterNode shrinks in place, numericNode writes one double
// per selected row. numericNode also has a *dense* mode: sel ==
// nullptr means rows [base, base+n) — no index indirection, so the
// common materialize-whole-column case (and the morsel executor's
// row ranges) runs as straight-line loops the compiler vectorizes.

void numericNode(const Pool &pool, int32_t ni, const uint32_t *sel,
                 size_t n, double *out, size_t base);

/** Run fn(position, row) over the selection — or, when sel is null,
 * densely over rows [base, base+n). Two loop bodies so the dense one
 * carries no per-row conditional. */
template <class Fn>
inline void
forRows(const uint32_t *sel, size_t n, size_t base, Fn fn)
{
    if (sel) {
        for (size_t i = 0; i < n; ++i)
            fn(i, sel[i]);
    } else {
        const uint32_t b = uint32_t(base);
        for (size_t i = 0; i < n; ++i)
            fn(i, b + uint32_t(i));
    }
}

/** sel := sel \ sub (both strictly increasing, sub ⊆ sel). */
void
selSubtract(std::vector<uint32_t> &sel, const std::vector<uint32_t> &sub)
{
    if (sub.empty())
        return;
    size_t out = 0, j = 0;
    for (size_t i = 0; i < sel.size(); ++i) {
        if (j < sub.size() && sub[j] == sel[i]) {
            ++j;
            continue;
        }
        sel[out++] = sel[i];
    }
    sel.resize(out);
}

/**
 * Apply a row predicate over sel, keeping matching rows in place.
 * The compaction is branchless (unconditional store + predicated
 * advance), so random selectivities pay no mispredict penalty, and a
 * contiguous selection (the common identity vector from filterRows)
 * drops the sel[i] indirection entirely.
 */
template <class Pred>
void
keepIf(std::vector<uint32_t> &sel, Pred pred)
{
    const size_t n = sel.size();
    if (n == 0)
        return;
    size_t out = 0;
    uint32_t *s = sel.data();
    if (size_t(s[n - 1]) - s[0] + 1 == n) {
        const uint32_t base = s[0];
        for (size_t i = 0; i < n; ++i) {
            const uint32_t r = base + uint32_t(i);
            s[out] = r;
            out += pred(i, r) ? 1 : 0;
        }
    } else {
        for (size_t i = 0; i < n; ++i) {
            const uint32_t r = s[i]; // read before the s[out] store
            s[out] = r;
            out += pred(i, r) ? 1 : 0;
        }
    }
    sel.resize(out);
}

/** Dispatch a comparison op to a generic keep loop. ga/gb map
 * (position, row) to the operand values. */
template <class GetA, class GetB>
void
cmpKeep(CmpOp op, std::vector<uint32_t> &sel, GetA ga, GetB gb)
{
    switch (op) {
      case CmpOp::Eq:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) == gb(i, r); });
        break;
      case CmpOp::Ne:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) != gb(i, r); });
        break;
      case CmpOp::Lt:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) < gb(i, r); });
        break;
      case CmpOp::Le:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) <= gb(i, r); });
        break;
      case CmpOp::Gt:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) > gb(i, r); });
        break;
      case CmpOp::Ge:
        keepIf(sel, [&](size_t i, uint32_t r) { return ga(i, r) >= gb(i, r); });
        break;
    }
}

/** Numeric-column comparison against whatever gb produces. */
template <class GetB>
void
cmpColKeep(CmpOp op, const ColumnVector &col, std::vector<uint32_t> &sel,
           GetB gb)
{
    if (col.type() == TypeId::Double) {
        const double *d = col.doubles().data();
        cmpKeep(op, sel,
                [d](size_t, uint32_t r) { return d[r]; }, gb);
    } else {
        const int64_t *d = col.ints().data();
        cmpKeep(op, sel,
                [d](size_t, uint32_t r) { return double(d[r]); }, gb);
    }
}

/** True for nodes a kernel can read per row without recursion:
 * literals and column references. */
inline bool
isLeaf(const Node &nd)
{
    return nd.kind == ExprKind::Const || nd.kind == ExprKind::ColRef;
}

void
filterNode(const Pool &pool, int32_t ni, std::vector<uint32_t> &sel)
{
    const Node &n = pool[size_t(ni)];
    switch (n.kind) {
      case ExprKind::Logic:
        switch (n.logic) {
          case LogicOp::And:
            // Short-circuit: the right side only sees survivors.
            filterNode(pool, n.kid0, sel);
            if (!sel.empty())
                filterNode(pool, n.kid1, sel);
            return;
          case LogicOp::Or: {
            // Left side first; the right side only sees the rows the
            // left rejected, then the two (disjoint, sorted) survivor
            // sets merge back together.
            std::vector<uint32_t> strue = sel;
            filterNode(pool, n.kid0, strue);
            std::vector<uint32_t> rest = sel;
            selSubtract(rest, strue);
            filterNode(pool, n.kid1, rest);
            sel.clear();
            std::merge(strue.begin(), strue.end(), rest.begin(),
                       rest.end(), std::back_inserter(sel));
            return;
          }
          case LogicOp::Not: {
            std::vector<uint32_t> strue = sel;
            filterNode(pool, n.kid0, strue);
            selSubtract(sel, strue);
            return;
          }
        }
        return;
      case ExprKind::Cmp: {
        const Node &a = pool[size_t(n.kid0)];
        const Node &b = pool[size_t(n.kid1)];
        if (n.stringCmp) {
            if (a.kind == ExprKind::ColRef && b.kind == ExprKind::Const &&
                (n.cmp == CmpOp::Eq || n.cmp == CmpOp::Ne)) {
                const int64_t *codes = a.colv->ints().data();
                const int64_t cc = n.constCode;
                if (n.cmp == CmpOp::Eq)
                    keepIf(sel, [codes, cc](size_t, uint32_t r) {
                        return codes[r] == cc;
                    });
                else
                    keepIf(sel, [codes, cc](size_t, uint32_t r) {
                        return codes[r] != cc;
                    });
                return;
            }
            // General (rare) string comparison: per-row materialized.
            keepIf(sel, [&](size_t, uint32_t r) {
                return evalB(pool, n, r);
            });
            return;
        }
        if (isLeaf(a) && isLeaf(b)) {
            // Leaf-vs-leaf: no scratch buffers, one typed pass.
            if (a.kind == ExprKind::ColRef && b.kind == ExprKind::Const) {
                const double c = b.literalNum;
                cmpColKeep(n.cmp, *a.colv, sel,
                           [c](size_t, uint32_t) { return c; });
            } else if (a.kind == ExprKind::Const &&
                       b.kind == ExprKind::ColRef) {
                const double c = a.literalNum;
                const ColumnVector &col = *b.colv;
                if (col.type() == TypeId::Double) {
                    const double *d = col.doubles().data();
                    cmpKeep(n.cmp, sel,
                            [c](size_t, uint32_t) { return c; },
                            [d](size_t, uint32_t r) { return d[r]; });
                } else {
                    const int64_t *d = col.ints().data();
                    cmpKeep(n.cmp, sel,
                            [c](size_t, uint32_t) { return c; },
                            [d](size_t, uint32_t r) {
                                return double(d[r]);
                            });
                }
            } else if (a.kind == ExprKind::ColRef &&
                       b.kind == ExprKind::ColRef) {
                const ColumnVector &cb = *b.colv;
                if (cb.type() == TypeId::Double) {
                    const double *d = cb.doubles().data();
                    cmpColKeep(n.cmp, *a.colv, sel,
                               [d](size_t, uint32_t r) { return d[r]; });
                } else {
                    const int64_t *d = cb.ints().data();
                    cmpColKeep(n.cmp, *a.colv, sel,
                               [d](size_t, uint32_t r) {
                                   return double(d[r]);
                               });
                }
            } else { // const vs const
                const double ca = a.literalNum, cb = b.literalNum;
                cmpKeep(n.cmp, sel,
                        [ca](size_t, uint32_t) { return ca; },
                        [cb](size_t, uint32_t) { return cb; });
            }
            return;
        }
        // General comparison: evaluate both sides into scratch
        // buffers over the current selection, then one compare pass.
        const size_t cnt = sel.size();
        std::vector<double> va(cnt), vb(cnt);
        numericNode(pool, n.kid0, sel.data(), cnt, va.data(), 0);
        numericNode(pool, n.kid1, sel.data(), cnt, vb.data(), 0);
        cmpKeep(n.cmp, sel,
                [&va](size_t i, uint32_t) { return va[i]; },
                [&vb](size_t i, uint32_t) { return vb[i]; });
        return;
      }
      case ExprKind::Like:
      case ExprKind::SubstrIn: {
        const int64_t *codes = n.colv->ints().data();
        const uint8_t *match = n.dictMatch.data();
        keepIf(sel, [codes, match](size_t, uint32_t r) {
            return match[size_t(codes[r])] != 0;
        });
        return;
      }
      case ExprKind::InList: {
        const auto &set = n.inCodesValid ? n.inCodes : n.inInts;
        const int64_t *data = n.colv->ints().data();
        keepIf(sel, [&set, data](size_t, uint32_t r) {
            return std::find(set.begin(), set.end(), data[r]) !=
                   set.end();
        });
        return;
      }
      default: {
        // Numeric expression in boolean context: non-zero is true.
        const size_t cnt = sel.size();
        std::vector<double> v(cnt);
        numericNode(pool, ni, sel.data(), cnt, v.data(), 0);
        keepIf(sel, [&v](size_t i, uint32_t) { return v[i] != 0.0; });
        return;
      }
    }
}

/** Invoke fn with a (row)->double getter for a leaf (isLeaf). */
template <class Fn>
inline void
withLeaf(const Node &nd, Fn fn)
{
    if (nd.kind == ExprKind::Const) {
        const double c = nd.literalNum;
        fn([c](uint32_t) { return c; });
    } else if (nd.colv->type() == TypeId::Double) {
        const double *d = nd.colv->doubles().data();
        fn([d](uint32_t r) { return d[r]; });
    } else {
        const int64_t *d = nd.colv->ints().data();
        fn([d](uint32_t r) { return double(d[r]); });
    }
}

/** Invoke emit with a getter computing `ga op gb` per row. The
 * per-row operation order matches the scalar oracle exactly
 * (including the divide-by-zero guard), so fused results are bitwise
 * identical to the reference path. */
template <class GA, class GB, class Emit>
inline void
withArith(ArithOp op, GA ga, GB gb, Emit emit)
{
    switch (op) {
      case ArithOp::Add:
        emit([=](uint32_t r) { return ga(r) + gb(r); });
        break;
      case ArithOp::Sub:
        emit([=](uint32_t r) { return ga(r) - gb(r); });
        break;
      case ArithOp::Mul:
        emit([=](uint32_t r) { return ga(r) * gb(r); });
        break;
      case ArithOp::Div:
        emit([=](uint32_t r) {
            const double b = gb(r);
            return b != 0 ? ga(r) / b : 0.0;
        });
        break;
    }
}

void
numericNode(const Pool &pool, int32_t ni, const uint32_t *sel, size_t n,
            double *out, size_t base)
{
    const Node &nd = pool[size_t(ni)];
    switch (nd.kind) {
      case ExprKind::ColRef:
        if (nd.colv->type() == TypeId::Double) {
            const double *d = nd.colv->doubles().data();
            forRows(sel, n, base,
                    [d, out](size_t i, uint32_t r) { out[i] = d[r]; });
        } else {
            const int64_t *d = nd.colv->ints().data();
            forRows(sel, n, base, [d, out](size_t i, uint32_t r) {
                out[i] = double(d[r]);
            });
        }
        return;
      case ExprKind::Const: {
        const double c = nd.literalNum;
        for (size_t i = 0; i < n; ++i)
            out[i] = c;
        return;
      }
      case ExprKind::Arith: {
        const Node &ka = pool[size_t(nd.kid0)];
        const Node &kb = pool[size_t(nd.kid1)];
        const auto emitOut = [&](auto g) {
            forRows(sel, n, base,
                    [&g, out](size_t i, uint32_t r) { out[i] = g(r); });
        };
        // Fused loops: up to two arithmetic levels over leaves run as
        // a single pass with zero scratch buffers (covers the
        // workhorse shapes `a ⊗ b` and `a ⊗ (b ⊗ c)`, e.g.
        // price * (1 - disc)). This is what closed the eval_column
        // per-row-indirection gap.
        if (isLeaf(ka) && isLeaf(kb)) {
            withLeaf(ka, [&](auto ga) {
                withLeaf(kb, [&](auto gb) {
                    withArith(nd.arith, ga, gb, emitOut);
                });
            });
            return;
        }
        if (isLeaf(ka) && kb.kind == ExprKind::Arith &&
            isLeaf(pool[size_t(kb.kid0)]) &&
            isLeaf(pool[size_t(kb.kid1)])) {
            withLeaf(ka, [&](auto ga) {
                withLeaf(pool[size_t(kb.kid0)], [&](auto gb0) {
                    withLeaf(pool[size_t(kb.kid1)], [&](auto gb1) {
                        withArith(kb.arith, gb0, gb1, [&](auto gb) {
                            withArith(nd.arith, ga, gb, emitOut);
                        });
                    });
                });
            });
            return;
        }
        if (isLeaf(kb) && ka.kind == ExprKind::Arith &&
            isLeaf(pool[size_t(ka.kid0)]) &&
            isLeaf(pool[size_t(ka.kid1)])) {
            withLeaf(kb, [&](auto gb) {
                withLeaf(pool[size_t(ka.kid0)], [&](auto ga0) {
                    withLeaf(pool[size_t(ka.kid1)], [&](auto ga1) {
                        withArith(ka.arith, ga0, ga1, [&](auto ga) {
                            withArith(nd.arith, ga, gb, emitOut);
                        });
                    });
                });
            });
            return;
        }
        // Constant left operand: evaluate the right kid into out and
        // apply the constant in place (shape: 1 - <expr>).
        if (ka.kind == ExprKind::Const && kb.kind != ExprKind::Const) {
            const double c = ka.literalNum;
            numericNode(pool, nd.kid1, sel, n, out, base);
            switch (nd.arith) {
              case ArithOp::Add:
                for (size_t i = 0; i < n; ++i)
                    out[i] = c + out[i];
                return;
              case ArithOp::Sub:
                for (size_t i = 0; i < n; ++i)
                    out[i] = c - out[i];
                return;
              case ArithOp::Mul:
                for (size_t i = 0; i < n; ++i)
                    out[i] = c * out[i];
                return;
              case ArithOp::Div:
                for (size_t i = 0; i < n; ++i)
                    out[i] = out[i] != 0 ? c / out[i] : 0.0;
                return;
            }
            return;
        }
        numericNode(pool, nd.kid0, sel, n, out, base);
        // Constant right operand: fold into the accumulate pass, no
        // scratch buffer.
        if (kb.kind == ExprKind::Const) {
            const double c = kb.literalNum;
            switch (nd.arith) {
              case ArithOp::Add:
                for (size_t i = 0; i < n; ++i)
                    out[i] += c;
                return;
              case ArithOp::Sub:
                for (size_t i = 0; i < n; ++i)
                    out[i] -= c;
                return;
              case ArithOp::Mul:
                for (size_t i = 0; i < n; ++i)
                    out[i] *= c;
                return;
              case ArithOp::Div:
                if (c != 0) {
                    for (size_t i = 0; i < n; ++i)
                        out[i] /= c;
                } else {
                    for (size_t i = 0; i < n; ++i)
                        out[i] = 0.0;
                }
                return;
            }
            return;
        }
        std::vector<double> rhs(n);
        numericNode(pool, nd.kid1, sel, n, rhs.data(), base);
        switch (nd.arith) {
          case ArithOp::Add:
            for (size_t i = 0; i < n; ++i)
                out[i] += rhs[i];
            return;
          case ArithOp::Sub:
            for (size_t i = 0; i < n; ++i)
                out[i] -= rhs[i];
            return;
          case ArithOp::Mul:
            for (size_t i = 0; i < n; ++i)
                out[i] *= rhs[i];
            return;
          case ArithOp::Div:
            for (size_t i = 0; i < n; ++i)
                out[i] = rhs[i] != 0 ? out[i] / rhs[i] : 0.0;
            return;
        }
        return;
      }
      case ExprKind::CaseWhen: {
        // Split the selection by the condition, evaluate each branch
        // only on its rows, and scatter back by position.
        std::vector<uint32_t> tsel;
        if (sel) {
            tsel.assign(sel, sel + n);
        } else {
            tsel.resize(n);
            std::iota(tsel.begin(), tsel.end(), uint32_t(base));
        }
        filterNode(pool, nd.kid0, tsel);
        const auto rowAt = [sel, base](size_t i) {
            return sel ? sel[i] : uint32_t(base + i);
        };
        std::vector<uint32_t> esel, tpos, epos;
        esel.reserve(n - tsel.size());
        epos.reserve(n - tsel.size());
        tpos.reserve(tsel.size());
        size_t j = 0;
        for (size_t i = 0; i < n; ++i) {
            if (j < tsel.size() && tsel[j] == rowAt(i)) {
                tpos.push_back(uint32_t(i));
                ++j;
            } else {
                esel.push_back(rowAt(i));
                epos.push_back(uint32_t(i));
            }
        }
        std::vector<double> tv(tsel.size()), ev(esel.size());
        numericNode(pool, nd.kid1, tsel.data(), tsel.size(), tv.data(),
                    0);
        numericNode(pool, nd.kid2, esel.data(), esel.size(), ev.data(),
                    0);
        for (size_t i = 0; i < tpos.size(); ++i)
            out[tpos[i]] = tv[i];
        for (size_t i = 0; i < epos.size(); ++i)
            out[epos[i]] = ev[i];
        return;
      }
      case ExprKind::YearOf:
        numericNode(pool, nd.kid0, sel, n, out, base);
        for (size_t i = 0; i < n; ++i)
            out[i] = double(yearOfDays(int64_t(out[i])));
        return;
      case ExprKind::SubstrInt: {
        const int64_t *codes = nd.colv->ints().data();
        const double *vals = nd.dictValue.data();
        forRows(sel, n, base, [codes, vals, out](size_t i, uint32_t r) {
            out[i] = vals[size_t(codes[r])];
        });
        return;
      }
      default: {
        // Boolean expression in numeric context: 1.0 / 0.0.
        std::vector<uint32_t> bsel;
        if (sel) {
            bsel.assign(sel, sel + n);
        } else {
            bsel.resize(n);
            std::iota(bsel.begin(), bsel.end(), uint32_t(base));
        }
        filterNode(pool, ni, bsel);
        size_t j = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint32_t r = sel ? sel[i] : uint32_t(base + i);
            const bool hit = j < bsel.size() && bsel[j] == r;
            out[i] = hit ? 1.0 : 0.0;
            j += hit;
        }
        return;
      }
    }
}

} // namespace

BoundExpr::BoundExpr(ExprPtr e, const Chunk &chunk, const ParamMap *params)
{
    size_ = exprSize(*e);
    pool_.reserve(size_t(size_));

    // Recursive bind into the flat pool (children first, post-order).
    std::function<int32_t(const Expr &)> bind =
        [&](const Expr &x) -> int32_t {
        Node n;
        n.kind = x.kind;
        n.cmp = x.cmp;
        n.logic = x.logic;
        n.arith = x.arith;
        n.pattern = x.pattern;
        n.substrPos = x.substrPos;
        n.substrLen = x.substrLen;
        n.inStrings = x.inStrings;
        n.inInts = x.inInts;
        switch (x.kind) {
          case ExprKind::ColRef:
            n.colv = &chunk.byName(x.column);
            break;
          case ExprKind::Const:
            n.literal = x.literal;
            break;
          case ExprKind::Param: {
            if (!params)
                panic("expression parameter '" + x.param +
                      "' with no param map");
            auto it = params->find(x.param);
            if (it == params->end())
                panic("unbound expression parameter '" + x.param + "'");
            n.kind = ExprKind::Const;
            n.literal = it->second;
            break;
          }
          case ExprKind::Like:
          case ExprKind::SubstrIn:
          case ExprKind::SubstrInt:
          case ExprKind::InList:
            n.colv = &chunk.byName(x.column);
            break;
          default:
            break;
        }
        if (n.kind == ExprKind::Const && !n.literal.isString())
            n.literalNum = n.literal.numeric();
        int32_t kids[3] = {-1, -1, -1};
        for (size_t k = 0; k < x.kids.size() && k < 3; ++k)
            kids[k] = bind(*x.kids[k]);
        n.kid0 = kids[0];
        n.kid1 = kids[1];
        n.kid2 = kids[2];

        // Post-bind analysis.
        if (n.kind == ExprKind::Cmp) {
            const Node &a = pool_[size_t(n.kid0)];
            const Node &b = pool_[size_t(n.kid1)];
            const bool a_str =
                (a.kind == ExprKind::ColRef &&
                 a.colv->type() == TypeId::String) ||
                (a.kind == ExprKind::Const && a.literal.isString());
            const bool b_str =
                (b.kind == ExprKind::ColRef &&
                 b.colv->type() == TypeId::String) ||
                (b.kind == ExprKind::Const && b.literal.isString());
            n.stringCmp = a_str && b_str;
            if (n.stringCmp && a.kind == ExprKind::ColRef &&
                b.kind == ExprKind::Const && a.colv->dict()) {
                const uint32_t code =
                    a.colv->dict()->lookup(b.literal.asString());
                n.constCode =
                    code == UINT32_MAX ? int64_t(-1) : int64_t(code);
            }
        }
        if (n.kind == ExprKind::Like || n.kind == ExprKind::SubstrIn) {
            if (n.colv->type() != TypeId::String || !n.colv->dict())
                panic("LIKE/SUBSTR on non-string column");
            const StringDict &d = *n.colv->dict();
            n.dictMatch.resize(d.size(), 0);
            for (uint32_t c = 0; c < d.size(); ++c) {
                const std::string &s = d.at(c);
                bool m;
                if (n.kind == ExprKind::Like) {
                    m = likeMatch(s, n.pattern);
                } else {
                    const std::string sub = s.substr(
                        size_t(n.substrPos - 1),
                        size_t(n.substrLen));
                    m = std::find(n.inStrings.begin(),
                                  n.inStrings.end(),
                                  sub) != n.inStrings.end();
                }
                n.dictMatch[c] = m ? 1 : 0;
            }
        }
        if (n.kind == ExprKind::SubstrInt) {
            if (n.colv->type() != TypeId::String || !n.colv->dict())
                panic("SUBSTR-INT on non-string column");
            const StringDict &d = *n.colv->dict();
            n.dictValue.resize(d.size(), 0.0);
            for (uint32_t c = 0; c < d.size(); ++c) {
                const std::string sub = d.at(c).substr(
                    size_t(n.substrPos - 1), size_t(n.substrLen));
                n.dictValue[c] = double(std::atoll(sub.c_str()));
            }
        }
        if (n.kind == ExprKind::InList && !n.inStrings.empty()) {
            if (n.colv->type() != TypeId::String || !n.colv->dict())
                panic("IN string list on non-string column");
            for (const auto &s : n.inStrings) {
                const uint32_t c = n.colv->dict()->lookup(s);
                if (c != UINT32_MAX)
                    n.inCodes.push_back(int64_t(c));
            }
            n.inCodesValid = true;
        }
        pool_.push_back(std::move(n));
        return int32_t(pool_.size() - 1);
    };
    root_ = bind(*e);
}

bool
BoundExpr::evalBool(size_t i) const
{
    return evalB(pool_, pool_[size_t(root_)], i);
}

double
BoundExpr::evalNumeric(size_t i) const
{
    return evalNum(pool_, pool_[size_t(root_)], i);
}

void
BoundExpr::filterSel(std::vector<uint32_t> &sel) const
{
    if (root_ >= 0 && !sel.empty())
        filterNode(pool_, root_, sel);
}

void
BoundExpr::evalNumericSel(const uint32_t *sel, size_t n,
                          double *out) const
{
    if (root_ >= 0 && n > 0)
        numericNode(pool_, root_, sel, n, out, 0);
}

void
BoundExpr::evalNumericRange(size_t begin, size_t count,
                            double *out) const
{
    if (root_ >= 0 && count > 0)
        numericNode(pool_, root_, nullptr, count, out, begin);
}

std::vector<uint32_t>
filterRows(const ExprPtr &e, const Chunk &chunk, const ParamMap *params)
{
    BoundExpr be(e, chunk, params);
    std::vector<uint32_t> sel(chunk.rows());
    std::iota(sel.begin(), sel.end(), 0u);
    be.filterSel(sel);
    return sel;
}

ColumnVector
evalColumn(const ExprPtr &e, const Chunk &chunk, const std::string &name,
           const ParamMap *params)
{
    BoundExpr be(e, chunk, params);
    ColumnVector out = ColumnVector::doubles(name);
    const size_t n = chunk.rows();
    out.doubles().resize(n);
    be.evalNumericRange(0, n, out.doubles().data());
    return out;
}

} // namespace dbsens
