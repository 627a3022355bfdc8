/**
 * @file
 * Differential/property tests for the vectorized expression kernels:
 * random expressions over random chunks, evaluated by both the
 * vectorized selection-vector path (filterSel / evalNumericSel) and
 * the retained scalar reference path (evalBool / evalNumeric). The
 * two must agree exactly — identical selection vectors and
 * bit-identical numeric columns — because the simulator's cost model
 * and golden digests are derived from these results.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/random.h"
#include "exec/expr.h"

namespace dbsens {
namespace {

/** Dict strings: digit prefixes exercise substrInt, letters LIKE. */
const std::vector<std::string> kDictValues = {
    "12AX", "34BX", "56CY", "78DY", "90EZ", "11FZ",
};

struct TestData
{
    StringDict dict;
    Chunk chunk;
    ParamMap params;
};

/** Random chunk over a fixed column vocabulary. */
TestData
makeData(Rng &rng, size_t rows)
{
    TestData td;
    for (const auto &s : kDictValues)
        td.dict.codeOf(s);
    td.chunk.addColumn(ColumnVector::ints("i1"));
    td.chunk.addColumn(ColumnVector::ints("i2"));
    td.chunk.addColumn(ColumnVector::ints("i3"));
    td.chunk.addColumn(ColumnVector::doubles("d1"));
    td.chunk.addColumn(ColumnVector::doubles("d2"));
    td.chunk.addColumn(ColumnVector::strings("s1", &td.dict));
    td.chunk.setRows(rows);
    auto &i1 = td.chunk.byName("i1").ints();
    auto &i2 = td.chunk.byName("i2").ints();
    auto &i3 = td.chunk.byName("i3").ints();
    auto &d1 = td.chunk.byName("d1").doubles();
    auto &d2 = td.chunk.byName("d2").doubles();
    auto &s1 = td.chunk.byName("s1").ints();
    for (size_t r = 0; r < rows; ++r) {
        i1.push_back(int64_t(rng.range(-50, 50)));
        i2.push_back(int64_t(rng.range(0, 20000)));
        i3.push_back(int64_t(rng())); // full int64 range
        d1.push_back(rng.uniformReal() * 2.0 - 1.0);
        d2.push_back(double(rng.range(0, 1000)) / 8.0);
        s1.push_back(int64_t(rng.uniform(uint32_t(kDictValues.size()))));
    }
    td.params = {{"p1", Value(int64_t(7))}, {"p2", Value(0.25)}};
    return td;
}

ExprPtr genBool(Rng &rng, int depth);

/** Literals where int64 -> double rounds or IEEE semantics (NaN
 *  compares unordered, inf arithmetic) must match the oracle. */
ExprPtr
edgeLiteral(Rng &rng)
{
    switch (rng.uniform(4)) {
      case 0: return lit(Value(std::numeric_limits<double>::quiet_NaN()));
      case 1: return lit(Value(std::numeric_limits<double>::infinity()));
      case 2: return lit(Value(-std::numeric_limits<double>::infinity()));
      default: return lit(Value((int64_t(1) << 53) + 1)); // rounds
    }
}

/** Random numeric expression (columns, literals, params, arithmetic,
 *  CASE WHEN, YEAR, SUBSTRING-as-int). */
ExprPtr
genNum(Rng &rng, int depth)
{
    if (depth <= 0) {
        switch (rng.uniform(9)) {
          case 0: return col("i1");
          case 1: return col("i2");
          case 2: return col("i3");
          case 3: return col("d1");
          case 4: return col("d2");
          case 5: return lit(Value(int64_t(rng.range(-20, 20))));
          case 6: return lit(Value(rng.uniformReal() * 4.0 - 2.0));
          case 7: return edgeLiteral(rng);
          default: return rng.uniform(2) ? param("p1") : param("p2");
        }
    }
    switch (rng.uniform(10)) {
      case 0: return add(genNum(rng, depth - 1), genNum(rng, depth - 1));
      case 1: return sub(genNum(rng, depth - 1), genNum(rng, depth - 1));
      case 2: return mul(genNum(rng, depth - 1), genNum(rng, depth - 1));
      case 3:
        return divide(genNum(rng, depth - 1), genNum(rng, depth - 1));
      case 4:
        return caseWhen(genBool(rng, depth - 1), genNum(rng, depth - 1),
                        genNum(rng, depth - 1));
      case 5: return yearOf(col("i2"));
      case 6: return substrInt("s1", 1, 2);
      default: return genNum(rng, 0);
    }
}

/** Random boolean expression (comparisons, logic, LIKE, IN lists). */
ExprPtr
genBool(Rng &rng, int depth)
{
    const auto op = CmpOp(rng.uniform(6));
    if (depth <= 0) {
        switch (rng.uniform(4)) {
          case 0:
            return cmp(op, genNum(rng, 0), genNum(rng, 0));
          case 1:
            return cmp(op, col("s1"),
                       lit(Value(kDictValues[rng.uniform(
                           uint32_t(kDictValues.size()))])));
          case 2: return like("s1", rng.uniform(2) ? "%B%" : "%Y");
          default:
            return rng.uniform(2)
                       ? inList("s1", {"12AX", "56CY", "nope"})
                       : inListInt("i1", {0, 3, -7, 12});
        }
    }
    switch (rng.uniform(8)) {
      case 0:
        return land(genBool(rng, depth - 1), genBool(rng, depth - 1));
      case 1:
        return lor(genBool(rng, depth - 1), genBool(rng, depth - 1));
      case 2: return lnot(genBool(rng, depth - 1));
      case 3:
        return cmp(op, genNum(rng, depth - 1), genNum(rng, depth - 1));
      case 4:
        return between(genNum(rng, depth - 1),
                       Value(int64_t(rng.range(-10, 5))),
                       Value(int64_t(rng.range(5, 30))));
      case 5:
        return genNum(rng, depth - 1); // numeric in boolean context
      default: return genBool(rng, 0);
    }
}

/** Scalar-path selection vector over an arbitrary input selection. */
std::vector<uint32_t>
scalarFilter(const BoundExpr &be, const std::vector<uint32_t> &in)
{
    std::vector<uint32_t> out;
    for (uint32_t r : in)
        if (be.evalBool(r))
            out.push_back(r);
    return out;
}

bool
bitIdentical(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ExprVectorized, FilterMatchesScalarReference)
{
    Rng rng(0xF117E);
    const size_t sizes[] = {0, 1, 2, 7, 63, 256, 1000};
    for (int trial = 0; trial < 400; ++trial) {
        const size_t rows = sizes[rng.uniform(7)];
        TestData td = makeData(rng, rows);
        auto e = genBool(rng, int(rng.uniform(4)) + 1);
        BoundExpr be(e, td.chunk, &td.params);

        std::vector<uint32_t> all(rows);
        std::iota(all.begin(), all.end(), 0u);
        const auto expect = scalarFilter(be, all);

        const auto got = filterRows(e, td.chunk, &td.params);
        ASSERT_EQ(got, expect) << "trial " << trial << " rows " << rows;
    }
}

TEST(ExprVectorized, FilterSelOnSparseSelections)
{
    // Start from a non-identity selection (every third row, plus
    // ragged head/tail) so the sparse kernel paths are exercised.
    Rng rng(0xBEEF);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t rows = 1 + rng.uniform(500);
        TestData td = makeData(rng, rows);
        auto e = genBool(rng, int(rng.uniform(4)) + 1);
        BoundExpr be(e, td.chunk, &td.params);

        std::vector<uint32_t> sel;
        for (uint32_t r = 0; r < rows; ++r)
            if (rng.uniform(3) != 0)
                sel.push_back(r);
        const auto expect = scalarFilter(be, sel);

        auto got = sel;
        be.filterSel(got);
        ASSERT_EQ(got, expect) << "trial " << trial << " rows " << rows;
    }
}

TEST(ExprVectorized, NumericMatchesScalarBitExact)
{
    Rng rng(0xD0B1E);
    const size_t sizes[] = {0, 1, 2, 7, 63, 256, 1000};
    for (int trial = 0; trial < 400; ++trial) {
        const size_t rows = sizes[rng.uniform(7)];
        TestData td = makeData(rng, rows);
        auto e = genNum(rng, int(rng.uniform(4)) + 1);
        BoundExpr be(e, td.chunk, &td.params);

        ColumnVector cv = evalColumn(e, td.chunk, "x", &td.params);
        ASSERT_EQ(cv.doubles().size(), rows);
        for (size_t r = 0; r < rows; ++r) {
            const double want = be.evalNumeric(r);
            ASSERT_TRUE(bitIdentical(cv.doubleAt(r), want))
                << "trial " << trial << " row " << r << ": vectorized "
                << cv.doubleAt(r) << " vs scalar " << want;
        }
    }
}

TEST(ExprVectorized, NumericSelOnSparseSelections)
{
    Rng rng(0xCAFE);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t rows = 1 + rng.uniform(500);
        TestData td = makeData(rng, rows);
        auto e = genNum(rng, int(rng.uniform(4)) + 1);
        BoundExpr be(e, td.chunk, &td.params);

        std::vector<uint32_t> sel;
        for (uint32_t r = 0; r < rows; ++r)
            if (rng.uniform(4) != 0)
                sel.push_back(r);
        std::vector<double> out(sel.size());
        be.evalNumericSel(sel.data(), sel.size(), out.data());
        for (size_t i = 0; i < sel.size(); ++i) {
            const double want = be.evalNumeric(sel[i]);
            ASSERT_TRUE(bitIdentical(out[i], want))
                << "trial " << trial << " i " << i;
        }
    }
}

TEST(ExprVectorized, NumericRangeDenseMatchesScalar)
{
    // The dense path (null selection vector, arbitrary base) powers
    // evalColumn and the morsel kernels; it takes the fused-arithmetic
    // fast paths, which must stay bit-identical to the scalar tree.
    Rng rng(0xDE27E);
    for (int trial = 0; trial < 300; ++trial) {
        const size_t rows = 1 + rng.uniform(600);
        TestData td = makeData(rng, rows);
        auto e = genNum(rng, int(rng.uniform(4)) + 1);
        BoundExpr be(e, td.chunk, &td.params);

        const size_t begin = rng.uniform(uint32_t(rows));
        const size_t count = 1 + rng.uniform(uint32_t(rows - begin));
        std::vector<double> out(count, -42.0);
        be.evalNumericRange(begin, count, out.data());
        for (size_t i = 0; i < count; ++i) {
            const double want = be.evalNumeric(begin + i);
            ASSERT_TRUE(bitIdentical(out[i], want))
                << "trial " << trial << " begin " << begin << " i "
                << i;
        }
    }
}

TEST(ExprVectorized, FusedArithShapes)
{
    // The explicit fusion patterns: leaf⊗leaf, leaf⊗(leaf⊗leaf), and
    // (leaf⊗leaf)⊗leaf, over column/constant leaves of both types.
    Rng rng(2);
    TestData td = makeData(rng, 777);
    const std::vector<ExprPtr> shapes = {
        mul(col("d1"), col("d2")),
        add(col("i1"), lit(3.5)),
        sub(lit(1.0), col("d1")),
        mul(col("d2"), sub(lit(1.0), col("d1"))),
        add(sub(col("i2"), col("i1")), col("d2")),
        divide(col("d1"), col("d2")), // zero divisors guard to 0
        divide(lit(1.0), sub(col("d2"), col("d2"))),
    };
    for (size_t s = 0; s < shapes.size(); ++s) {
        BoundExpr be(shapes[s], td.chunk, &td.params);
        ColumnVector cv = evalColumn(shapes[s], td.chunk, "x",
                                     &td.params);
        for (size_t r = 0; r < td.chunk.rows(); ++r)
            ASSERT_TRUE(bitIdentical(cv.doubleAt(r), be.evalNumeric(r)))
                << "shape " << s << " row " << r;
    }
}

TEST(ExprVectorized, KnownPredicates)
{
    // A few hand-written shapes with hand-checkable results, so a
    // generator bug can't silently mask a kernel bug.
    Rng rng(1);
    TestData td = makeData(rng, 10);
    auto &i1 = td.chunk.byName("i1").ints();
    std::iota(i1.begin(), i1.end(), int64_t(-3)); // -3..6

    auto ge0 = filterRows(ge(col("i1"), lit(Value(int64_t(0)))),
                          td.chunk, &td.params);
    EXPECT_EQ(ge0.size(), 7u);
    EXPECT_EQ(ge0.front(), 3u);

    auto band = filterRows(
        land(ge(col("i1"), lit(Value(int64_t(-1)))),
             lt(col("i1"), lit(Value(int64_t(2))))),
        td.chunk, &td.params);
    EXPECT_EQ(band, (std::vector<uint32_t>{2, 3, 4}));

    auto either = filterRows(
        lor(lt(col("i1"), lit(Value(int64_t(-2)))),
            ge(col("i1"), lit(Value(int64_t(6))))),
        td.chunk, &td.params);
    EXPECT_EQ(either, (std::vector<uint32_t>{0, 9}));

    auto inv = filterRows(lnot(eq(col("i1"), lit(Value(int64_t(0))))),
                          td.chunk, &td.params);
    EXPECT_EQ(inv.size(), 9u);
}

} // namespace
} // namespace dbsens
