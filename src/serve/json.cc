#include "serve/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace mlc {
namespace serve {

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        mlc_panic("Json::asBool on non-bool");
    return bool_;
}

double
Json::asNumber() const
{
    if (kind_ != Kind::Number)
        mlc_panic("Json::asNumber on non-number");
    return num_;
}

std::uint64_t
Json::asU64() const
{
    const double d = asNumber();
    if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
        mlc_panic("Json::asU64: ", d,
                  " is not a non-negative integer in range");
    return static_cast<std::uint64_t>(d);
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        mlc_panic("Json::asString on non-string");
    return str_;
}

const std::vector<Json> &
Json::asArray() const
{
    if (kind_ != Kind::Array)
        mlc_panic("Json::asArray on non-array");
    return arr_;
}

void
Json::push(Json v)
{
    if (kind_ != Kind::Array)
        mlc_panic("Json::push on non-array");
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    if (kind_ != Kind::Object)
        mlc_panic("Json::set on non-object");
    for (auto &kv : obj_)
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    obj_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (kind_ != Kind::Object)
        mlc_panic("Json::members on non-object");
    return obj_;
}

std::string
jsonNumber(double d)
{
    if (!std::isfinite(d))
        return "null"; // JSON has no inf/nan; null is the honest out
    // Integers (the common case: sizes, counts) print without an
    // exponent or trailing ".0"; everything else uses %.17g, which
    // round-trips any double bit-exactly.
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
Json::dump() const
{
    switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return bool_ ? "true" : "false";
    case Kind::Number: return jsonNumber(num_);
    case Kind::String: return jsonQuote(str_);
    case Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out.push_back(',');
            out += arr_[i].dump();
        }
        out.push_back(']');
        return out;
    }
    case Kind::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out.push_back(',');
            out += jsonQuote(obj_[i].first);
            out.push_back(':');
            out += obj_[i].second.dump();
        }
        out.push_back('}');
        return out;
    }
    }
    mlc_panic("Json::dump: corrupt kind");
}

namespace {

const std::string kTooDeep = "nesting deeper than " +
                             std::to_string(Json::kMaxDepth) +
                             " levels";

/** Recursive-descent parser over a char range; recursion is
 *  bounded by Json::kMaxDepth. */
class Parser
{
  public:
    Parser(const char *p, const char *end) : p_(p), end_(end) {}

    bool
    document(Json &out, std::string &error)
    {
        skipWs();
        if (!value(out, error))
            return false;
        skipWs();
        if (p_ != end_) {
            error = fail("trailing characters after value");
            return false;
        }
        return true;
    }

  private:
    std::string
    fail(const std::string &what) const
    {
        return what + " at offset " +
               std::to_string(static_cast<std::size_t>(p_ - begin_));
    }

    void
    skipWs()
    {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (static_cast<std::size_t>(end_ - p_) < len ||
            std::memcmp(p_, word, len) != 0)
            return false;
        p_ += len;
        return true;
    }

    bool
    value(Json &out, std::string &error)
    {
        if (p_ == end_) {
            error = fail("unexpected end of input");
            return false;
        }
        switch (*p_) {
        case 'n':
            if (!literal("null", 4)) {
                error = fail("bad literal");
                return false;
            }
            out = Json();
            return true;
        case 't':
            if (!literal("true", 4)) {
                error = fail("bad literal");
                return false;
            }
            out = Json(true);
            return true;
        case 'f':
            if (!literal("false", 5)) {
                error = fail("bad literal");
                return false;
            }
            out = Json(false);
            return true;
        case '"': {
            std::string s;
            if (!string(s, error))
                return false;
            out = Json(std::move(s));
            return true;
        }
        case '[':
        case '{': {
            if (depth_ == Json::kMaxDepth) {
                error = fail(kTooDeep);
                return false;
            }
            ++depth_;
            const bool ok =
                *p_ == '[' ? array(out, error) : object(out, error);
            --depth_;
            return ok;
        }
        default: return number(out, error);
        }
    }

    bool
    string(std::string &out, std::string &error)
    {
        ++p_; // opening quote
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_) {
                    error = fail("unterminated escape");
                    return false;
                }
                switch (*p_) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u': {
                    if (end_ - p_ < 5) {
                        error = fail("short \\u escape");
                        return false;
                    }
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char c = p_[i];
                        code <<= 4;
                        if (c >= '0' && c <= '9')
                            code |= static_cast<unsigned>(c - '0');
                        else if (c >= 'a' && c <= 'f')
                            code |=
                                static_cast<unsigned>(c - 'a' + 10);
                        else if (c >= 'A' && c <= 'F')
                            code |=
                                static_cast<unsigned>(c - 'A' + 10);
                        else {
                            error = fail("bad \\u escape");
                            return false;
                        }
                    }
                    p_ += 4;
                    // Encode the code point as UTF-8 (BMP only —
                    // surrogate pairs are beyond what the protocol
                    // ever carries; reject them loudly).
                    if (code >= 0xD800 && code <= 0xDFFF) {
                        error = fail("surrogate \\u escape "
                                     "unsupported");
                        return false;
                    }
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(
                            0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(
                            0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(
                            0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(
                            0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: error = fail("bad escape"); return false;
                }
                ++p_;
            } else {
                out.push_back(*p_);
                ++p_;
            }
        }
        if (p_ == end_) {
            error = fail("unterminated string");
            return false;
        }
        ++p_; // closing quote
        return true;
    }

    bool
    number(Json &out, std::string &error)
    {
        const char *start = p_;
        if (p_ != end_ && (*p_ == '-' || *p_ == '+'))
            ++p_;
        while (p_ != end_ &&
               (std::isdigit(static_cast<unsigned char>(*p_)) ||
                *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                *p_ == '-' || *p_ == '+'))
            ++p_;
        double d = 0.0;
        const auto [ptr, ec] = std::from_chars(start, p_, d);
        if (ec != std::errc() || ptr != p_ || start == p_) {
            p_ = start;
            error = fail("bad number");
            return false;
        }
        out = Json(d);
        return true;
    }

    bool
    array(Json &out, std::string &error)
    {
        ++p_; // '['
        out = Json::array();
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        for (;;) {
            Json elem;
            skipWs();
            if (!value(elem, error))
                return false;
            out.push(std::move(elem));
            skipWs();
            if (p_ == end_) {
                error = fail("unterminated array");
                return false;
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            error = fail("expected ',' or ']'");
            return false;
        }
    }

    bool
    object(Json &out, std::string &error)
    {
        ++p_; // '{'
        out = Json::object();
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        for (;;) {
            skipWs();
            if (p_ == end_ || *p_ != '"') {
                error = fail("expected object key");
                return false;
            }
            std::string key;
            if (!string(key, error))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':') {
                error = fail("expected ':'");
                return false;
            }
            ++p_;
            skipWs();
            Json val;
            if (!value(val, error))
                return false;
            out.set(key, std::move(val));
            skipWs();
            if (p_ == end_) {
                error = fail("unterminated object");
                return false;
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            error = fail("expected ',' or '}'");
            return false;
        }
    }

    const char *p_;
    const char *end_;
    const char *begin_ = p_;
    std::size_t depth_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    Parser parser(text.data(), text.data() + text.size());
    return parser.document(out, error);
}

bool
Json::tooDeep(const std::string &error)
{
    return error.rfind(kTooDeep, 0) == 0;
}

} // namespace serve
} // namespace mlc
