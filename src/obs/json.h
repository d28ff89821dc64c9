#pragma once
// Minimal JSON emitter and parser for the observability layer.
//
// JsonWriter streams a JSON document into a string with correct escaping
// and comma placement; it is the single serializer behind Chrome trace
// export, the metrics snapshot, the versioned run report, and the
// BENCH_*.json bench outputs. The parser builds a small DOM used by the
// document validators (parseDocument) and the trace/report tests — it
// accepts exactly the JSON this repo emits (no comments, no trailing
// commas) plus any other RFC 8259 document.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eco::obs {

class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object key; must be followed by a value or container begin.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  JsonWriter& nullValue();
  /// Fixed-point double (e.g. trace timestamps in microseconds).
  JsonWriter& valueFixed(double v, int decimals);
  /// Splices a pre-serialized JSON value verbatim (caller guarantees it is
  /// a complete, valid JSON document — e.g. another JsonWriter's output).
  JsonWriter& rawValue(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void separate();  ///< comma between siblings, nothing after a key

  std::string out_;
  std::vector<bool> has_sibling_;  ///< per open container
  bool after_key_ = false;
};

/// Appends `v` to `out` with JSON string escaping (no surrounding quotes).
void appendJsonEscaped(std::string& out, std::string_view v);

namespace json {

struct Value {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  bool isNull() const { return kind == Kind::Null; }
  bool isBool() const { return kind == Kind::Bool; }
  bool isNumber() const { return kind == Kind::Number; }
  bool isString() const { return kind == Kind::String; }
  bool isArray() const { return kind == Kind::Array; }
  bool isObject() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parses a complete JSON document. On failure returns false and, when
/// `error` is non-null, stores a message with the byte offset.
bool parse(std::string_view text, Value* out, std::string* error = nullptr);

/// One member a document must carry: a top-level key or a "section.key"
/// path one level deep, and the Kind its value must have.
struct RequiredKey {
  const char* path;
  Value::Kind kind;
};

/// Checks that every `required` path of `root` is present with its Kind.
/// On failure returns false and stores a message naming `what` (the
/// document, e.g. "run report") and the offending path.
bool checkRequired(const Value& root, std::span<const RequiredKey> required,
                   std::string_view what, std::string* error);

/// Schema check shared by the repo's versioned documents: parses `text`
/// into `root`, requires an object whose "schema" string is `schema` and
/// whose "schema_version" is an integer in [min_version, max_version],
/// then runs checkRequired. Document-specific checks run on `root` after.
bool parseDocument(std::string_view text, std::string_view what,
                   std::string_view schema, int min_version, int max_version,
                   std::span<const RequiredKey> required, Value* root,
                   std::string* error);

}  // namespace json
}  // namespace eco::obs
