/**
 * @file
 * Minimal JSON for the query-server protocol.
 *
 * The wire format (serve/protocol.hh) is newline-delimited JSON:
 * one object per request, one per response. This is the smallest
 * value type that round-trips it — null/bool/number/string/array/
 * object, UTF-8 passed through verbatim, numbers held as doubles
 * (every quantity the protocol carries — sizes, cycle counts,
 * ratios, microseconds — fits a double's 53-bit integer range).
 *
 * Determinism matters more than generality here: serialization
 * emits object keys in insertion order and formats numbers with
 * shortest-round-trip precision, so a memoized response replayed
 * from the result cache is byte-identical to the freshly computed
 * one. No external dependency (the container bakes none in).
 */

#ifndef MLC_SERVE_JSON_HH
#define MLC_SERVE_JSON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mlc {
namespace serve {

/** One JSON value; a tagged union over the six JSON types. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double d) : kind_(Kind::Number), num_(d) {}
    Json(int i) : kind_(Kind::Number), num_(i) {}
    Json(std::uint64_t u)
        : kind_(Kind::Number), num_(static_cast<double>(u))
    {
    }
    Json(std::uint32_t u)
        : kind_(Kind::Number), num_(static_cast<double>(u))
    {
    }
    Json(const char *s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @{ @name Typed accessors (panic on kind mismatch) */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() checked non-negative integral, for counts and
     *  sizes. */
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    /** @} */

    /** @{ @name Array building */
    void push(Json v);
    /** @} */

    /** @{ @name Object access (insertion-ordered) */
    /** Set or replace a key. */
    void set(const std::string &key, Json v);
    /** Member lookup; nullptr when absent (or not an object). */
    const Json *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &
    members() const;
    /** @} */

    /** Compact single-line serialization (no spaces, keys in
     *  insertion order, shortest-round-trip numbers). */
    std::string dump() const;

    /** Deepest array/object nesting parse() accepts (requests
     *  nest 2-3 levels): bounds the parser's recursion. */
    static constexpr std::size_t kMaxDepth = 64;

    /**
     * Parse one JSON document; trailing whitespace allowed,
     * anything else after the value is an error, as is nesting
     * deeper than kMaxDepth. On failure returns false and fills
     * @p error with a position-tagged message; @p out is left in
     * an unspecified state.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

    /** Whether a parse() @p error reports the nesting limit (a
     *  well-formed document the server refuses, not bad JSON). */
    static bool tooDeep(const std::string &error);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Format @p d with shortest round-trip precision (what dump()
 *  uses); exposed because response payloads built by hand must
 *  format numbers identically to be memo-safe. */
std::string jsonNumber(double d);

/** Quote + escape @p s as a JSON string literal. */
std::string jsonQuote(const std::string &s);

} // namespace serve
} // namespace mlc

#endif // MLC_SERVE_JSON_HH
