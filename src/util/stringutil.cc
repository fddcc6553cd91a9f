#include "util/stringutil.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace fdm {

namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

bool ParseInt64(std::string_view text, int64_t* value) {
  return ParseWhole(text, value);
}

bool ParseUint64(std::string_view text, uint64_t* value) {
  return ParseWhole(text, value);
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void AppendGeneral(double value, std::string* out) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 6)
                       .ptr);
}

std::string FormatCount(double value) {
  const char* suffix = "";
  double v = value;
  if (std::fabs(v) >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (std::fabs(v) >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (std::fabs(v) >= 1e3) {
    v /= 1e3;
    suffix = "K";
  }
  char buf[64];
  if (suffix[0] == '\0') {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix);
  }
  return buf;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string PadLeft(std::string_view text, size_t width) {
  std::string out;
  if (text.size() < width) out.assign(width - text.size(), ' ');
  out += text;
  return out;
}

std::string PadRight(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace fdm
