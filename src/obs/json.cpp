#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

namespace eco::obs {

void appendJsonEscaped(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_sibling_.empty()) {
    if (has_sibling_.back()) out_ += ',';
    has_sibling_.back() = true;
  }
}

JsonWriter& JsonWriter::beginObject() {
  separate();
  out_ += '{';
  has_sibling_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  has_sibling_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  separate();
  out_ += '[';
  has_sibling_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  has_sibling_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  appendJsonEscaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  appendJsonEscaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {  // JSON has no inf/nan; null is the convention
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::valueFixed(double v, int decimals) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::nullValue() {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::rawValue(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

namespace json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool run(Value* out) {
    skipWs();
    if (!parseValue(out)) return false;
    skipWs();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const char* msg) {
    if (error_ != nullptr) {
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parseValue(Value* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    bool ok = false;
    switch (text_[pos_]) {
      case '{': ok = parseObject(out); break;
      case '[': ok = parseArray(out); break;
      case '"':
        out->kind = Value::Kind::String;
        ok = parseString(&out->string);
        break;
      case 't':
        out->kind = Value::Kind::Bool;
        out->boolean = true;
        ok = literal("true");
        break;
      case 'f':
        out->kind = Value::Kind::Bool;
        out->boolean = false;
        ok = literal("false");
        break;
      case 'n':
        out->kind = Value::Kind::Null;
        ok = literal("null");
        break;
      default: ok = parseNumber(out); break;
    }
    --depth_;
    return ok;
  }

  bool parseObject(Value* out) {
    out->kind = Value::Kind::Object;
    ++pos_;  // '{'
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parseString(&key)) return false;
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skipWs();
      Value v;
      if (!parseValue(&v)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(Value* out) {
    out->kind = Value::Kind::Array;
    ++pos_;  // '['
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      Value v;
      if (!parseValue(&v)) return false;
      out->array.push_back(std::move(v));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return fail("dangling escape");
      const char e = text_[pos_ + 1];
      pos_ += 2;
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this repo's emitter; pass them through raw).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = Value::Kind::Number;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    return true;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* error) {
  return Parser(text, error).run(out);
}

namespace {

const char* kindName(Value::Kind k) {
  switch (k) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "bool";
    case Value::Kind::Number: return "number";
    case Value::Kind::String: return "string";
    case Value::Kind::Array: return "array";
    case Value::Kind::Object: return "object";
  }
  return "?";
}

/// Stores the concatenated `parts` in `error` (when non-null); returns false.
bool fail(std::string* error, std::initializer_list<std::string_view> parts) {
  if (error != nullptr) {
    error->clear();
    for (const std::string_view part : parts) error->append(part);
  }
  return false;
}

}  // namespace

bool checkRequired(const Value& root, std::span<const RequiredKey> required,
                   std::string_view what, std::string* error) {
  for (const RequiredKey& req : required) {
    const std::string_view path(req.path);
    const std::size_t dot = path.find('.');
    const Value* v = &root;
    if (dot != std::string_view::npos) {
      const std::string_view section = path.substr(0, dot);
      v = root.find(section);
      if (v == nullptr || !v->isObject()) {
        return fail(error, {what, " missing section '", section, "'"});
      }
    }
    v = v->find(dot == std::string_view::npos ? path : path.substr(dot + 1));
    if (v == nullptr) return fail(error, {what, " missing required key '", path, "'"});
    if (v->kind != req.kind) {
      return fail(error, {what, " key '", path, "' must be ", kindName(req.kind),
                          ", got ", kindName(v->kind)});
    }
  }
  return true;
}

bool parseDocument(std::string_view text, std::string_view what,
                   std::string_view schema, int min_version, int max_version,
                   std::span<const RequiredKey> required, Value* root,
                   std::string* error) {
  std::string parse_error;
  if (!parse(text, root, &parse_error)) {
    return fail(error, {what, " is not valid JSON: ", parse_error});
  }
  if (!root->isObject()) return fail(error, {what, " root must be an object"});
  const Value* name = root->find("schema");
  if (name == nullptr || !name->isString() || name->string != schema) {
    return fail(error, {what, " must carry schema '", schema, "'"});
  }
  const Value* version = root->find("schema_version");
  if (version == nullptr || !version->isNumber() || version->number < min_version ||
      version->number > max_version || version->number != std::floor(version->number)) {
    return fail(error, {what, " has an unsupported schema_version"});
  }
  return checkRequired(*root, required, what, error);
}

}  // namespace json
}  // namespace eco::obs
