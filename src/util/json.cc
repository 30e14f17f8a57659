#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gdbmicro {

namespace {

void EscapeString(std::string_view s, std::string* out) {
  out->push_back('"');
  // Runs of clean bytes append in bulk; only the characters that actually
  // need escaping take the switch.
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out->append(s.substr(start, i - start));
    start = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.substr(start));
  out->push_back('"');
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    GDB_ASSIGN_OR_RETURN(Json v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::Corruption("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Status::Corruption("JSON nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Status::Corruption("unexpected end of JSON");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        GDB_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        return ParseLiteral("true", Json(true));
      case 'f':
        return ParseLiteral("false", Json(false));
      case 'n':
        return ParseLiteral("null", Json(nullptr));
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseLiteral(std::string_view lit, Json value) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Status::Corruption("invalid JSON literal");
    }
    pos_ += lit.size();
    return value;
  }

  // Numbers are built in place inside the result: moving a fresh Json
  // into it trips GCC 12's -Wmaybe-uninitialized on the variant's other
  // alternatives under -fsanitize=address.
  Result<Json> ParseNumber() {
    size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Status::Corruption("invalid JSON number");
    std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      char* end = nullptr;
      double d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        return Status::Corruption("invalid JSON number: " + token);
      }
      return Result<Json>(std::in_place, d);
    }
    errno = 0;
    char* end = nullptr;
    long long i = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE) {
      // Fall back to double for out-of-range integers.
      return Result<Json>(std::in_place, std::strtod(token.c_str(), nullptr));
    }
    if (end != token.c_str() + token.size()) {
      return Status::Corruption("invalid JSON number: " + token);
    }
    return Result<Json>(std::in_place, static_cast<int64_t>(i));
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::Corruption("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::Corruption("invalid \\u escape");
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate pairs
          // are passed through as two 3-byte sequences, sufficient for the
          // benchmark payloads).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::Corruption("invalid escape character");
      }
    }
    return Status::Corruption("unterminated JSON string");
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json::Array arr;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      GDB_ASSIGN_OR_RETURN(Json v, ParseValue(depth + 1));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Status::Corruption("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return Json(std::move(arr));
      if (c != ',') return Status::Corruption("expected ',' in array");
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json::Object obj;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::Corruption("expected object key");
      }
      GDB_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Status::Corruption("expected ':' in object");
      }
      GDB_ASSIGN_OR_RETURN(Json v, ParseValue(depth + 1));
      obj.emplace_back(std::move(key), std::move(v));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Status::Corruption("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return Json(std::move(obj));
      if (c != ',') return Status::Corruption("expected ',' in object");
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::Set(std::string key, Json value) {
  for (auto& [k, v] : object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object().emplace_back(std::move(key), std::move(value));
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * (depth + 1)), ' ');
    }
  };
  auto closing_newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  if (is_null()) {
    out->append("null");
  } else if (is_bool()) {
    out->append(bool_value() ? "true" : "false");
  } else if (is_int()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<int64_t>(value_)));
    out->append(buf);
  } else if (is_double()) {
    double d = std::get<double>(value_);
    if (std::isfinite(d)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      // Keep the double/integer distinction across a round trip: an
      // integral double must not re-parse as an int64.
      if (std::strpbrk(buf, ".eEnN") == nullptr) {
        std::strcat(buf, ".0");
      }
      out->append(buf);
    } else {
      out->append("null");  // JSON has no Inf/NaN
    }
  } else if (is_string()) {
    EscapeString(string_value(), out);
  } else if (is_array()) {
    const Array& arr = array();
    if (arr.empty()) {
      out->append("[]");
      return;
    }
    out->push_back('[');
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i) out->push_back(',');
      newline();
      arr[i].DumpTo(out, indent, depth + 1);
    }
    closing_newline();
    out->push_back(']');
  } else {
    const Object& obj = object();
    if (obj.empty()) {
      out->append("{}");
      return;
    }
    out->push_back('{');
    for (size_t i = 0; i < obj.size(); ++i) {
      if (i) out->push_back(',');
      newline();
      EscapeString(obj[i].first, out);
      out->push_back(':');
      if (indent > 0) out->push_back(' ');
      obj[i].second.DumpTo(out, indent, depth + 1);
    }
    closing_newline();
    out->push_back('}');
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

void Json::DumpAppend(std::string* out) const { DumpTo(out, 0, 0); }

void AppendEscapedJsonString(std::string_view s, std::string* out) {
  EscapeString(s, out);
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser p(text);
  return p.ParseDocument();
}

}  // namespace gdbmicro
