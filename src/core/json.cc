#include "core/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/logging.h"

namespace dbsens {

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        panic("Json::operator[] on non-object");
    for (auto &m : members_)
        if (m.first == key)
            return m.second;
    members_.emplace_back(key, Json());
    return members_.back().second;
}

bool
Json::contains(const std::string &key) const
{
    for (const auto &m : members_)
        if (m.first == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    for (const auto &m : members_)
        if (m.first == key)
            return m.second;
    panic("Json::at: no member \"" + key + "\"");
}

const Json &
Json::at(size_t i) const
{
    if (i >= items_.size())
        panic("Json::at: index out of range");
    return items_[i];
}

std::string
Json::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

namespace {

void
appendNumber(std::string &out, double v, bool is_int)
{
    if (std::isnan(v) || std::isinf(v)) {
        // JSON has no NaN/Inf; emit null so documents stay parseable.
        out += "null";
        return;
    }
    char buf[40];
    if (is_int && v >= -9.2e18 && v <= 9.2e18 &&
        v == std::floor(v)) {
        std::snprintf(buf, sizeof(buf), "%lld", (long long)(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.12g", v);
    }
    out += buf;
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const std::string pad =
        pretty ? std::string(size_t(indent) * size_t(depth + 1), ' ') : "";
    const std::string closePad =
        pretty ? std::string(size_t(indent) * size_t(depth), ' ') : "";
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, num_, isInt_);
        break;
      case Type::String:
        out += '"';
        out += escape(str_);
        out += '"';
        break;
      case Type::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (size_t i = 0; i < items_.size(); ++i) {
            out += pad;
            items_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += ']';
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (size_t i = 0; i < members_.size(); ++i) {
            out += pad;
            out += '"';
            out += escape(members_[i].first);
            out += '"';
            out += colon;
            members_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
Json::writeFile(const std::string &path, int indent) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = dump(indent);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fputc('\n', f) != EOF;
    std::fclose(f);
    return ok;
}

// ------------------------------------------------------------ parser

namespace {

struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, size_t n)
    {
        if (text.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size())
                    return fail("bad escape");
                const char e = text[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos + size_t(i)];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode (surrogate pairs not recombined;
                    // traces and reports only emit BMP text).
                    if (code < 0x80) {
                        out += char(code);
                    } else if (code < 0x800) {
                        out += char(0xC0 | (code >> 6));
                        out += char(0x80 | (code & 0x3F));
                    } else {
                        out += char(0xE0 | (code >> 12));
                        out += char(0x80 | ((code >> 6) & 0x3F));
                        out += char(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                continue;
            }
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out = Json::object();
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json v;
                if (!parseValue(v))
                    return false;
                out[key] = std::move(v);
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = Json::array();
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                Json v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true", 4))
                return false;
            out = Json(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false", 5))
                return false;
            out = Json(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null", 4))
                return false;
            out = Json();
            return true;
        }
        // Number.
        const size_t start = pos;
        if (text[pos] == '-')
            ++pos;
        bool is_int = true;
        while (pos < text.size()) {
            const char d = text[pos];
            if (std::isdigit((unsigned char)d)) {
                ++pos;
            } else if (d == '.' || d == 'e' || d == 'E' || d == '+' ||
                       d == '-') {
                is_int = false;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start)
            return fail("unexpected character");
        char *end = nullptr;
        const std::string numText = text.substr(start, pos - start);
        const double v = std::strtod(numText.c_str(), &end);
        if (!end || *end != '\0')
            return fail("bad number");
        out = is_int ? Json(int64_t(v)) : Json(v);
        return true;
    }
};

} // namespace

Json
Json::parse(const std::string &text, std::string *err)
{
    Parser p{text, 0, {}};
    Json out;
    if (!p.parseValue(out)) {
        if (err)
            *err = p.error;
        return Json();
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing content at offset " + std::to_string(p.pos);
        return Json();
    }
    if (err)
        err->clear();
    return out;
}

Json
Json::readFile(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot read " + path;
        return Json();
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    Json doc = parse(ss.str(), err);
    if (err && !err->empty())
        *err = path + ": parse error: " + *err;
    return doc;
}

} // namespace dbsens
