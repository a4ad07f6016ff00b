/**
 * @file
 * Minimal JSON value model, parser and formatting helpers: the one JSON
 * implementation in the repo.
 *
 * The server parses untrusted request lines with it, and the validation
 * harnesses read their accuracy / calibration reports back with it;
 * every writer escapes through quote() and formats through number().
 * The parser is a small, strict, non-throwing recursive-descent parser
 * over a DOM-style value: objects, arrays, strings (with escapes;
 * \uXXXX accepted and mapped to UTF-8 for the BMP, surrogate pairs
 * rejected as malformed), doubles, bools, null. Limits are explicit —
 * maximum nesting depth and input size are enforced so attacker-shaped
 * bytes cannot recurse or allocate unboundedly; failures come back as a
 * Status (Corrupt / ResourceExhausted), never an exception or UB.
 */

#ifndef MIPP_UTIL_JSON_HH
#define MIPP_UTIL_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace mipp::json {

class Value;
using Object = std::map<std::string, Value, std::less<>>;
using Array = std::vector<Value>;

class Value
{
  public:
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    /** Without it a string literal would convert to bool. */
    Value(const char *s) : Value(std::string(s)) {}
    Value(Array a)
        : kind_(Kind::Array), arr_(std::make_shared<Array>(std::move(a)))
    {
    }
    Value(Object o)
        : kind_(Kind::Object),
          obj_(std::make_shared<Object>(std::move(o)))
    {
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean(bool fallback = false) const
    {
        return isBool() ? bool_ : fallback;
    }
    double number(double fallback = 0) const
    {
        return isNumber() ? num_ : fallback;
    }
    const std::string &
    str() const
    {
        static const std::string kEmpty;
        return isString() ? str_ : kEmpty;
    }
    const Array &
    array() const
    {
        static const Array kEmpty;
        return isArray() ? *arr_ : kEmpty;
    }
    const Object &
    object() const
    {
        static const Object kEmpty;
        return isObject() ? *obj_ : kEmpty;
    }

    /** Object member lookup; null Value when absent or not an object. */
    const Value &operator[](std::string_view key) const;

    /** Convenience typed getters over object members. */
    double
    numberOr(std::string_view key, double fallback) const
    {
        const Value &v = (*this)[key];
        return v.isNumber() ? v.number() : fallback;
    }
    std::string
    stringOr(std::string_view key, std::string fallback) const
    {
        const Value &v = (*this)[key];
        return v.isString() ? v.str() : std::move(fallback);
    }
    bool
    boolOr(std::string_view key, bool fallback) const
    {
        const Value &v = (*this)[key];
        return v.isBool() ? v.boolean() : fallback;
    }

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    // shared_ptr keeps Value copyable/compact without a recursive
    // variant; parsed documents are read-only so sharing is safe.
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

struct ParseLimits {
    size_t maxBytes = 64u << 20;
    size_t maxDepth = 32;
};

/** Parse one complete JSON document (trailing whitespace allowed,
 *  trailing garbage rejected). */
Status parse(std::string_view text, Value &out,
             const ParseLimits &limits = {});

/** parse() the whole file at @p path; reading stops once past
 *  limits.maxBytes. InvalidArgument when it cannot be opened; parse
 *  failures name the path. */
Status parseFile(const std::string &path, Value &out,
                 const ParseLimits &limits = {});

/** Serialize a string with JSON escaping, including quotes. */
std::string quote(std::string_view s);

/**
 * A JSON number: the shortest text that parses back to exactly @p v
 * (fixed notation for magnitudes in [1e-6, 1e21), else scientific), or
 * `null` when @p v is not finite.
 */
std::string number(double v);

/** A JSON number at a fixed @p precision (printf `%.*g`, at most 40
 *  digits), `null` when @p v is not finite. For wire formats whose text
 *  is pinned. */
std::string number(double v, int precision);

} // namespace mipp::json

#endif // MIPP_UTIL_JSON_HH
