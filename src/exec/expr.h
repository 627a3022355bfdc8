/**
 * @file
 * Scalar expression trees evaluated over chunks: column references,
 * literals, parameters (filled by scalar subqueries), comparisons,
 * boolean logic, arithmetic, LIKE patterns, IN lists, CASE WHEN,
 * SUBSTRING-IN, and YEAR extraction — everything the TPC-H/E query
 * suite needs.
 */

#ifndef DBSENS_EXEC_EXPR_H
#define DBSENS_EXEC_EXPR_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "exec/chunk.h"

namespace dbsens {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind : uint8_t {
    ColRef,   ///< named column of the input chunk
    Const,    ///< literal Value
    Param,    ///< named runtime parameter (scalar subquery result)
    Cmp,      ///< binary comparison
    Logic,    ///< AND / OR / NOT
    Arith,    ///< + - * /
    Like,     ///< string LIKE with '%' wildcards
    InList,   ///< column IN (literal list)
    SubstrIn, ///< SUBSTRING(col, pos, len) IN (literal list)
    SubstrInt, ///< SUBSTRING(col, pos, len) parsed as an integer
    CaseWhen, ///< CASE WHEN cond THEN a ELSE b END (numeric)
    YearOf,   ///< EXTRACT(YEAR FROM date-typed int column)
};

enum class CmpOp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };
enum class LogicOp : uint8_t { And, Or, Not };
enum class ArithOp : uint8_t { Add, Sub, Mul, Div };

/** One expression node. */
struct Expr
{
    ExprKind kind;
    // ColRef
    std::string column;
    // Const
    Value literal;
    // Param
    std::string param;
    // Cmp / Logic / Arith / CaseWhen children
    CmpOp cmp{};
    LogicOp logic{};
    ArithOp arith{};
    std::vector<ExprPtr> kids;
    // Like / SubstrIn
    std::string pattern;
    int substrPos = 0;
    int substrLen = 0;
    std::vector<std::string> inStrings;
    std::vector<int64_t> inInts;
};

// ------------------------------------------------------------- builders

ExprPtr col(const std::string &name);
ExprPtr lit(Value v);
ExprPtr param(const std::string &name);
ExprPtr cmp(CmpOp op, ExprPtr a, ExprPtr b);
ExprPtr eq(ExprPtr a, ExprPtr b);
ExprPtr ne(ExprPtr a, ExprPtr b);
ExprPtr lt(ExprPtr a, ExprPtr b);
ExprPtr le(ExprPtr a, ExprPtr b);
ExprPtr gt(ExprPtr a, ExprPtr b);
ExprPtr ge(ExprPtr a, ExprPtr b);
ExprPtr between(ExprPtr x, Value lo, Value hi);
ExprPtr land(ExprPtr a, ExprPtr b);
ExprPtr lor(ExprPtr a, ExprPtr b);
ExprPtr lnot(ExprPtr a);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr divide(ExprPtr a, ExprPtr b);
ExprPtr like(const std::string &column, const std::string &pattern);
ExprPtr inList(const std::string &column, std::vector<std::string> items);
ExprPtr inListInt(const std::string &column, std::vector<int64_t> items);
ExprPtr substrIn(const std::string &column, int pos, int len,
                 std::vector<std::string> items);
ExprPtr substrInt(const std::string &column, int pos, int len);
ExprPtr caseWhen(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
ExprPtr yearOf(ExprPtr date);

/** SQL LIKE match with '%' wildcards ('_' unsupported, unused). */
bool likeMatch(const std::string &s, const std::string &pattern);

/** Calendar year of a days-since-epoch date. */
int64_t yearOfDays(int64_t days);

// ------------------------------------------------------------ evaluation

/** Runtime parameters (scalar subquery results). */
using ParamMap = std::map<std::string, Value>;

/** Number of nodes in an expression (instruction-cost weighting). */
int exprSize(const Expr &e);

/**
 * Expression evaluator bound to a chunk. Binding compiles the tree
 * into a flat node pool (children stored by index, no per-node
 * shared_ptr) and resolves column references, parameters, and
 * dictionary fast paths once.
 *
 * Two evaluation paths share the pool:
 *
 *  - The **vectorized path** (filterSel / evalNumericSel) processes a
 *    whole selection vector per node: comparisons run as tight typed
 *    loops, AND/OR short-circuit column-at-a-time on the shrinking
 *    selection, arithmetic lands in scratch column buffers. This is
 *    what the executor uses.
 *  - The **scalar path** (evalBool / evalNumeric) interprets the pool
 *    one row at a time. It is retained as the reference oracle for
 *    the differential tests and for one-off row evaluations.
 *
 * Selection vectors are strictly increasing row indices into the
 * bound chunk; every kernel preserves that invariant.
 */
class BoundExpr
{
  public:
    BoundExpr(ExprPtr e, const Chunk &chunk, const ParamMap *params);
    ~BoundExpr();
    BoundExpr(BoundExpr &&) noexcept;
    BoundExpr &operator=(BoundExpr &&) noexcept;

    /** Evaluate as a boolean at row i (scalar reference path). */
    bool evalBool(size_t i) const;

    /** Evaluate as a numeric (double) at row i (scalar reference). */
    double evalNumeric(size_t i) const;

    /**
     * Vectorized filter: shrink `sel` in place to the rows where the
     * expression is true. `sel` must be strictly increasing.
     */
    void filterSel(std::vector<uint32_t> &sel) const;

    /**
     * Vectorized numeric evaluation: out[i] = value at row sel[i],
     * for i in [0, n). `sel` must be strictly increasing. A null
     * `sel` means the dense rows [0, n) — the indirection-free path.
     */
    void evalNumericSel(const uint32_t *sel, size_t n,
                        double *out) const;

    /**
     * Dense numeric evaluation over rows [begin, begin+count) — no
     * selection-vector indirection; this is the morsel executor's
     * per-range entry point and what evalColumn uses.
     */
    void evalNumericRange(size_t begin, size_t count, double *out) const;

    int size() const { return size_; }

    /** Bound node; public for the internal evaluator functions. */
    struct Node;

  private:
    std::vector<Node> pool_; ///< post-order; root is the last node
    int32_t root_ = -1;
    int size_ = 0;
};

/** Selection vector of rows where `e` is true. */
std::vector<uint32_t> filterRows(const ExprPtr &e, const Chunk &chunk,
                                 const ParamMap *params = nullptr);

/** Materialize a numeric expression over all rows of a chunk. */
ColumnVector evalColumn(const ExprPtr &e, const Chunk &chunk,
                        const std::string &name,
                        const ParamMap *params = nullptr);

} // namespace dbsens

#endif // DBSENS_EXEC_EXPR_H
