#include "util/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace mipp::json {

const Value &
Value::operator[](std::string_view key) const
{
    static const Value kNull;
    if (!isObject())
        return kNull;
    auto it = obj_->find(key);
    return it == obj_->end() ? kNull : it->second;
}

namespace {

struct Parser {
    const char *p;
    const char *end;
    const ParseLimits &limits;
    Status error;  // first failure; parsing stops once set

    bool
    fail(const std::string &msg)
    {
        if (error.isOk())
            error = corrupt("json: " + msg);
        return false;
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (static_cast<size_t>(end - p) < word.size() ||
            std::string_view(p, word.size()) != word)
            return false;
        p += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        // Caller consumed the opening quote.
        out.clear();
        while (p < end) {
            // Copy each run of plain bytes in one append; the run stops
            // at a quote, a backslash or a control byte.
            const char *run = p;
            while (p < end && *p != '"' && *p != '\\' &&
                   static_cast<unsigned char>(*p) >= 0x20)
                ++p;
            out.append(run, static_cast<size_t>(p - run));
            if (p >= end)
                break;
            unsigned char c = static_cast<unsigned char>(*p++);
            if (c == '"')
                return true;
            if (c < 0x20)
                return fail("raw control character in string");
            if (p >= end)
                return fail("dangling escape");
            char e = *p++;
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
                if (end - p < 4)
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p++;
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                if (v >= 0xD800 && v <= 0xDFFF)
                    return fail("surrogate \\u escape unsupported");
                // UTF-8 encode the BMP code point.
                if (v < 0x80) {
                    out += static_cast<char>(v);
                } else if (v < 0x800) {
                    out += static_cast<char>(0xC0 | (v >> 6));
                    out += static_cast<char>(0x80 | (v & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (v >> 12));
                    out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (v & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Value &out, size_t depth)
    {
        if (depth > limits.maxDepth)
            return fail("nesting deeper than limit");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        char c = *p;
        if (c == '{') {
            ++p;
            Object obj;
            skipWs();
            if (consume('}')) {
                out = Value(std::move(obj));
                return true;
            }
            for (;;) {
                if (!consume('"'))
                    return fail("expected object key");
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':' after key");
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                obj.insert_or_assign(std::move(key), std::move(v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}' in object");
            }
            out = Value(std::move(obj));
            return true;
        }
        if (c == '[') {
            ++p;
            Array arr;
            skipWs();
            if (consume(']')) {
                out = Value(std::move(arr));
                return true;
            }
            for (;;) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                arr.push_back(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']' in array");
            }
            out = Value(std::move(arr));
            return true;
        }
        if (c == '"') {
            ++p;
            std::string s;
            if (!parseString(s))
                return false;
            out = Value(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = Value(true);
            return true;
        }
        if (literal("false")) {
            out = Value(false);
            return true;
        }
        if (literal("null")) {
            out = Value();
            return true;
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            // strtod over a bounded copy: the slice is not guaranteed
            // NUL-terminated.
            const char *q = p;
            while (q < end &&
                   (*q == '-' || *q == '+' || *q == '.' || *q == 'e' ||
                    *q == 'E' || (*q >= '0' && *q <= '9')))
                ++q;
            std::string num(p, q);
            char *numEnd = nullptr;
            double v = std::strtod(num.c_str(), &numEnd);
            if (numEnd == num.c_str() ||
                numEnd != num.c_str() + num.size() || !std::isfinite(v))
                return fail("malformed number");
            p = q;
            out = Value(v);
            return true;
        }
        return fail("unexpected character");
    }
};

} // namespace

Status
parse(std::string_view text, Value &out, const ParseLimits &limits)
{
    if (text.size() > limits.maxBytes)
        return resourceExhausted(
            "json: input exceeds " + std::to_string(limits.maxBytes) +
            " bytes");
    Parser parser{text.data(), text.data() + text.size(), limits, {}};
    Value v;
    if (!parser.parseValue(v, 0))
        return parser.error.isOk() ? corrupt("json: parse failed")
                                   : parser.error;
    parser.skipWs();
    if (parser.p != parser.end)
        return corrupt("json: trailing garbage after document");
    out = std::move(v);
    return Status::ok();
}

Status
parseFile(const std::string &path, Value &out, const ParseLimits &limits)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return invalidArgument("cannot read " + path);
    std::string text;
    char buf[1 << 16];
    while (text.size() <= limits.maxBytes &&
           (in.read(buf, sizeof buf) || in.gcount() > 0))
        text.append(buf, static_cast<size_t>(in.gcount()));
    Status st = parse(text, out, limits);
    if (!st.isOk())
        return {st.code(), path + ": " + st.message()};
    return st;
}

std::string
quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    double a = std::fabs(v);
    auto format = a == 0 || (a >= 1e-6 && a < 1e21)
                      ? std::chars_format::fixed
                      : std::chars_format::scientific;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v, format);
    return std::string(buf, res.ptr);
}

std::string
number(double v, int precision)
{
    if (!std::isfinite(v))
        return "null";
    // to_chars is specified to print what printf's %.*g prints, several
    // times faster (serve formats every model value through here); 64
    // bytes hold 40 significant digits.
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general,
                             std::min(precision, 40));
    return std::string(buf, res.ptr);
}

} // namespace mipp::json
