#ifndef BENTO_UTIL_JSON_H_
#define BENTO_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace bento {

/// \brief A minimal JSON document model used for pipeline specifications
/// (Bento configures pipelines through JSON files, as in the paper) and for
/// machine-readable benchmark reports.
///
/// Supports null, bool, number (stored as double, with integer accessor),
/// string, array, object. Object member order is preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Int(int64_t v) { return Number(static_cast<double>(v)); }
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// The number truncated to int64_t; Invalid when this is not a number or
  /// the number lies outside int64_t's range.
  Result<int64_t> int_value() const;
  const std::string& string_value() const { return string_; }

  // Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t i) const { return array_[i]; }
  void Append(JsonValue v) { array_.push_back(std::move(v)); }
  const std::vector<JsonValue>& items() const { return array_; }

  // Object access.
  bool Has(const std::string& key) const;
  /// Returns the member or a shared null value when absent.
  const JsonValue& Get(const std::string& key) const;
  void Set(const std::string& key, JsonValue v);
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  // Typed getters with defaults, for ergonomic config reading. GetInt also
  // falls back when the member is outside int64_t's range.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// \brief Serializes to compact JSON; `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// \brief Parses a complete JSON document; rejects trailing garbage.
Result<JsonValue> ParseJson(std::string_view text);

/// \brief Reads and parses a JSON file.
Result<JsonValue> ReadJsonFile(const std::string& path);

}  // namespace bento

#endif  // BENTO_UTIL_JSON_H_
