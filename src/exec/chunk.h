/**
 * @file
 * Columnar intermediate results. The executor materializes one Chunk
 * per operator (operator-at-a-time execution, like a simplified
 * VectorWise): a Chunk is a set of named, typed column vectors of
 * equal length. Strings travel as dictionary codes plus a pointer to
 * their source dictionary, so comparisons and grouping stay integer.
 */

#ifndef DBSENS_EXEC_CHUNK_H
#define DBSENS_EXEC_CHUNK_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/logging.h"
#include "storage/column_data.h"

namespace dbsens {

/**
 * A column of an intermediate result: a flat typed vector (Int64 and
 * String share the int64 storage; strings hold dictionary codes).
 */
class ColumnVector
{
  public:
    ColumnVector() = default;

    static ColumnVector
    ints(std::string name)
    {
        ColumnVector c;
        c.name_ = std::move(name);
        c.type_ = TypeId::Int64;
        return c;
    }

    static ColumnVector
    doubles(std::string name)
    {
        ColumnVector c;
        c.name_ = std::move(name);
        c.type_ = TypeId::Double;
        return c;
    }

    static ColumnVector
    strings(std::string name, const StringDict *dict)
    {
        ColumnVector c;
        c.name_ = std::move(name);
        c.type_ = TypeId::String;
        c.dict_ = dict;
        return c;
    }

    const std::string &name() const { return name_; }
    void rename(std::string n) { name_ = std::move(n); }
    TypeId type() const { return type_; }
    const StringDict *dict() const { return dict_; }

    size_t
    size() const
    {
        return type_ == TypeId::Double ? dbl_.size() : i64_.size();
    }

    void reserve(size_t n)
    {
        if (type_ == TypeId::Double)
            dbl_.reserve(n);
        else
            i64_.reserve(n);
    }

    // Typed access. Int64 doubles as string-code storage.
    std::vector<int64_t> &ints() { return i64_; }
    const std::vector<int64_t> &ints() const { return i64_; }
    std::vector<double> &doubles() { return dbl_; }
    const std::vector<double> &doubles() const { return dbl_; }

    int64_t intAt(size_t i) const { return i64_[i]; }
    double doubleAt(size_t i) const { return dbl_[i]; }

    /** Numeric view of any non-string column. */
    double
    numericAt(size_t i) const
    {
        return type_ == TypeId::Double ? dbl_[i] : double(i64_[i]);
    }

    const std::string &
    stringAt(size_t i) const
    {
        return dict_->at(uint32_t(i64_[i]));
    }

    Value
    valueAt(size_t i) const
    {
        switch (type_) {
          case TypeId::Int64: return Value(intAt(i));
          case TypeId::Double: return Value(doubleAt(i));
          case TypeId::String: return Value(stringAt(i));
        }
        return Value();
    }

    void
    appendFrom(const ColumnVector &src, size_t i)
    {
        if (type_ == TypeId::Double)
            dbl_.push_back(src.dbl_[i]);
        else
            i64_.push_back(src.i64_[i]);
    }

    /**
     * Append src[sel[i]] for every i — the type dispatch happens once
     * and the copy runs as a tight typed loop (the appendFrom shape
     * re-branches per row). Reserves the exact output size up front.
     */
    void
    gatherFrom(const ColumnVector &src, const std::vector<uint32_t> &sel)
    {
        if (type_ == TypeId::Double) {
            const std::vector<double> &s = src.dbl_;
            dbl_.reserve(dbl_.size() + sel.size());
            for (uint32_t i : sel)
                dbl_.push_back(s[i]);
        } else {
            const std::vector<int64_t> &s = src.i64_;
            i64_.reserve(i64_.size() + sel.size());
            for (uint32_t i : sel)
                i64_.push_back(s[i]);
        }
    }

  private:
    std::string name_;
    TypeId type_ = TypeId::Int64;
    const StringDict *dict_ = nullptr;
    std::vector<int64_t> i64_;
    std::vector<double> dbl_;
};

/** A materialized intermediate relation. */
class Chunk
{
  public:
    size_t
    rows() const
    {
        return cols_.empty() ? rowsIfNoCols_ : cols_[0].size();
    }

    /** Row count for zero-column chunks (rare; COUNT(*) inputs). */
    void setRows(size_t n) { rowsIfNoCols_ = n; }

    size_t columnCount() const { return cols_.size(); }

    ColumnVector &addColumn(ColumnVector c)
    {
        cols_.push_back(std::move(c));
        return cols_.back();
    }

    ColumnVector &col(size_t i) { return cols_[i]; }
    const ColumnVector &col(size_t i) const { return cols_[i]; }

    /** Column index by name; -1 if absent. */
    int
    find(const std::string &name) const
    {
        for (size_t i = 0; i < cols_.size(); ++i)
            if (cols_[i].name() == name)
                return int(i);
        return -1;
    }

    const ColumnVector &
    byName(const std::string &name) const
    {
        const int i = find(name);
        if (i < 0)
            panic("chunk has no column '" + name + "'");
        return cols_[size_t(i)];
    }

    ColumnVector &
    byName(const std::string &name)
    {
        const int i = find(name);
        if (i < 0)
            panic("chunk has no column '" + name + "'");
        return cols_[size_t(i)];
    }

    std::vector<ColumnVector> &columns() { return cols_; }
    const std::vector<ColumnVector> &columns() const { return cols_; }

    /** Approximate in-flight bytes (memory-grant accounting). */
    uint64_t
    bytes() const
    {
        uint64_t b = 0;
        for (const auto &c : cols_)
            b += c.size() * 8;
        return b;
    }

    /** Gather the given row indices into a new chunk (same columns). */
    Chunk gather(const std::vector<uint32_t> &sel) const;

  private:
    std::vector<ColumnVector> cols_;
    size_t rowsIfNoCols_ = 0;
};

} // namespace dbsens

#endif // DBSENS_EXEC_CHUNK_H
