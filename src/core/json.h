/**
 * @file
 * Minimal JSON document model: build, serialize, and parse without any
 * external dependency. Used for machine-readable run reports
 * (bench --json), Chrome trace-event output (core/trace.h), and the
 * stats-registry dump. Objects preserve insertion order so emitted
 * reports are deterministic and diffable across runs.
 */

#ifndef DBSENS_CORE_JSON_H
#define DBSENS_CORE_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbsens {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int v) : type_(Type::Number), num_(v), isInt_(true) {}
    Json(int64_t v) : type_(Type::Number), num_(double(v)), isInt_(true) {}
    Json(uint64_t v) : type_(Type::Number), num_(double(v)), isInt_(true) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    double asDouble() const { return num_; }
    int64_t asInt() const { return int64_t(num_); }
    const std::string &asString() const { return str_; }

    /** Array/object element count. */
    size_t
    size() const
    {
        return type_ == Type::Array ? items_.size() : members_.size();
    }

    /** Append to an array (converts a Null value into an array). */
    void
    push(Json v)
    {
        if (type_ == Type::Null)
            type_ = Type::Array;
        items_.push_back(std::move(v));
    }

    /**
     * Object member access, inserting a Null member when absent
     * (converts a Null value into an object). Keys keep insertion
     * order.
     */
    Json &operator[](const std::string &key);

    /** True if an object has the key. */
    bool contains(const std::string &key) const;

    /** Member lookup without insertion; aborts when missing. */
    const Json &at(const std::string &key) const;

    /** Array element; aborts when out of range. */
    const Json &at(size_t i) const;

    const std::vector<Json> &items() const { return items_; }
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return members_;
    }

    /**
     * Serialize. indent < 0 yields compact one-line output; indent
     * >= 0 pretty-prints with that many spaces per level. Numbers
     * registered as integers print without a decimal point.
     */
    std::string dump(int indent = -1) const;

    /** Serialize to a file. Returns false on I/O failure. */
    bool writeFile(const std::string &path, int indent = 2) const;

    /**
     * Parse a JSON document. On error returns a Null value and, when
     * `err` is non-null, stores a message with the failing offset.
     */
    static Json parse(const std::string &text, std::string *err = nullptr);

    /**
     * Read and parse a JSON file. When the file cannot be opened or
     * parsed returns a Null value and, when `err` is non-null, stores
     * "cannot read <path>" or "<path>: parse error: <detail>".
     */
    static Json readFile(const std::string &path,
                         std::string *err = nullptr);

    /** Escape a string for embedding in a JSON document (no quotes). */
    static std::string escape(const std::string &s);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0;
    bool isInt_ = false;
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace dbsens

#endif // DBSENS_CORE_JSON_H
