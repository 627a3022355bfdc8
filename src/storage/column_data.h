/**
 * @file
 * Typed in-memory column vectors — the functional data plane shared by
 * the row-store and column-store layouts. Strings are dictionary
 * encoded (codes + dictionary), which both matches what a column store
 * does and makes string-heavy TPC columns cheap to compare.
 */

#ifndef DBSENS_STORAGE_COLUMN_DATA_H
#define DBSENS_STORAGE_COLUMN_DATA_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/value.h"
#include "core/types.h"

namespace dbsens {

/** Dictionary for a string column. */
class StringDict
{
  public:
    /** Code for a string, inserting it if new. */
    uint32_t
    codeOf(const std::string &s)
    {
        auto it = index_.find(s);
        if (it != index_.end())
            return it->second;
        const auto code = uint32_t(values_.size());
        values_.push_back(s);
        index_.emplace(values_.back(), code);
        return code;
    }

    /** Code for a string if present, else UINT32_MAX. */
    uint32_t
    lookup(const std::string &s) const
    {
        auto it = index_.find(s);
        return it == index_.end() ? UINT32_MAX : it->second;
    }

    const std::string &at(uint32_t code) const { return values_.at(code); }
    size_t size() const { return values_.size(); }

    /** Approximate dictionary bytes (for compressed-size accounting). */
    uint64_t
    bytes() const
    {
        uint64_t b = 0;
        for (const auto &v : values_)
            b += v.size() + 8;
        return b;
    }

  private:
    std::vector<std::string> values_;
    std::unordered_map<std::string, uint32_t> index_;
};

/** One column of data: typed vector, dictionary-encoded for strings. */
class ColumnData
{
  public:
    explicit ColumnData(TypeId type) : type_(type) {}

    TypeId type() const { return type_; }
    size_t size() const { return type_ == TypeId::Double ? dbl_.size()
                                                         : i64_.size(); }

    void
    append(const Value &v)
    {
        switch (type_) {
          case TypeId::Int64:
            i64_.push_back(v.asInt());
            break;
          case TypeId::Double:
            dbl_.push_back(v.isInt() ? double(v.asInt()) : v.asDouble());
            break;
          case TypeId::String:
            i64_.push_back(int64_t(dict_.codeOf(v.asString())));
            break;
        }
    }

    void appendInt(int64_t v) { i64_.push_back(v); }
    void appendString(const std::string &s)
    {
        i64_.push_back(int64_t(dict_.codeOf(s)));
    }

    int64_t getInt(RowId r) const { return i64_[r]; }
    double getDouble(RowId r) const { return dbl_[r]; }

    /** String value (only for String columns). */
    const std::string &
    getString(RowId r) const
    {
        return dict_.at(uint32_t(i64_[r]));
    }

    /** Dictionary code at a row (String columns). */
    uint32_t stringCode(RowId r) const { return uint32_t(i64_[r]); }

    Value
    get(RowId r) const
    {
        switch (type_) {
          case TypeId::Int64: return Value(i64_[r]);
          case TypeId::Double: return Value(dbl_[r]);
          case TypeId::String: return Value(getString(r));
        }
        return Value();
    }

    void
    set(RowId r, const Value &v)
    {
        switch (type_) {
          case TypeId::Int64:
            i64_[r] = v.asInt();
            break;
          case TypeId::Double:
            dbl_[r] = v.isInt() ? double(v.asInt()) : v.asDouble();
            break;
          case TypeId::String:
            i64_[r] = int64_t(dict_.codeOf(v.asString()));
            break;
        }
    }

    void setInt(RowId r, int64_t v) { i64_[r] = v; }

    const std::vector<int64_t> &intData() const { return i64_; }
    const std::vector<double> &doubleData() const { return dbl_; }
    const StringDict &dict() const { return dict_; }
    StringDict &dict() { return dict_; }

    /** Distinct-value estimate (exact for strings, sampled for ints). */
    uint64_t distinctEstimate() const;

    /** Compressed byte size estimate of this column (columnar form). */
    uint64_t compressedBytes() const;

  private:
    TypeId type_;
    std::vector<int64_t> i64_; // Int64 payloads or string codes
    std::vector<double> dbl_;
    StringDict dict_;
};

} // namespace dbsens

#endif // DBSENS_STORAGE_COLUMN_DATA_H
