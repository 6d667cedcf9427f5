#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace bento {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StrTrim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string AsciiToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StrContains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

bool StrStartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool StrEndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = StrTrim(s);
  if (s.empty()) return Status::Invalid("empty string is not an integer");
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::Invalid("not an integer: '", std::string(s), "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = StrTrim(s);
  if (s.empty()) return Status::Invalid("empty string is not a number");
  // std::from_chars for double is supported by GCC 11+.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::Invalid("not a number: '", std::string(s), "'");
  }
  return value;
}

Result<bool> ParseBool(std::string_view s) {
  std::string lower = AsciiToLower(StrTrim(s));
  if (lower == "true" || lower == "1" || lower == "t" || lower == "yes") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "f" || lower == "no") {
    return false;
  }
  return Status::Invalid("not a boolean: '", std::string(s), "'");
}

namespace {

/// The short-decimal path of FormatDoubleTo. For 1e-4 <= |v| < 1e15 it
/// takes r = round(|v| * 10^k) for the largest k <= 6 that keeps the
/// product below 2^51, and accepts r / 10^k == |v|. r and 10^k are exact
/// doubles, so that IEEE quotient is the correctly rounded value of the
/// decimal r * 10^-k, which is what parsing the decimal returns. As
/// r < 2^51, a unit in r's last digit outweighs the double's spacing at
/// |v| (2^-52 of it), so no other decimal with as few digits parses to
/// |v|: this is the shortest round-trip form, which "%.{p}g" (p its digit
/// count) prints. This lays its digits out as "%g" does. Returns 0 when
/// `v` is not such a decimal.
size_t FormatShortDecimal(double v, char* buf) {
  static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};
  const double a = std::fabs(v);
  if (!(a >= 1e-4 && a < 1e15)) return 0;
  int k = 6;
  double x = a * kPow10[k];
  while (x >= 0x1p51) x = a * kPow10[--k];
  // A decimal of at most k places times 10^k lies within a few ulps of an
  // integer, so most other values are turned away before the division.
  // x < 2^51, so x + 0.5 is exact and the cast rounds.
  int64_t r = static_cast<int64_t>(x + 0.5);
  if (std::fabs(x - static_cast<double>(r)) > x * 0x1p-50 ||
      static_cast<double>(r) / kPow10[k] != a) {
    return 0;
  }
  // Strip trailing zeros: the decimal is r * 10^-k, with `n` significant
  // digits and leading-digit exponent `exp10`.
  while (r % 10 == 0) {
    r /= 10;
    --k;
  }
  char digits[16];
  int n = 0;
  for (int64_t q = r; q != 0; q /= 10) {
    digits[15 - n++] = static_cast<char>('0' + q % 10);
  }
  const char* d = digits + 16 - n;
  const int exp10 = n - 1 - k;
  char* out = buf;
  if (v < 0) *out++ = '-';
  if (exp10 >= n) {
    // "%g" exponent notation: d[.ddd]e+XX (the exponent is 2..14 here).
    *out++ = d[0];
    if (n > 1) {
      *out++ = '.';
      std::memcpy(out, d + 1, static_cast<size_t>(n - 1));
      out += n - 1;
    }
    *out++ = 'e';
    *out++ = '+';
    *out++ = static_cast<char>('0' + exp10 / 10);
    *out++ = static_cast<char>('0' + exp10 % 10);
  } else if (exp10 >= 0) {
    std::memcpy(out, d, static_cast<size_t>(exp10 + 1));
    out += exp10 + 1;
    if (n > exp10 + 1) {
      *out++ = '.';
      std::memcpy(out, d + exp10 + 1, static_cast<size_t>(n - exp10 - 1));
      out += n - exp10 - 1;
    }
  } else {
    // exp10 is -1..-4: "0." and -exp10 - 1 zeros before the digits.
    *out++ = '0';
    *out++ = '.';
    for (int z = 0; z < -exp10 - 1; ++z) *out++ = '0';
    std::memcpy(out, d, static_cast<size_t>(n));
    out += n;
  }
  return static_cast<size_t>(out - buf);
}

}  // namespace

size_t FormatDoubleTo(double v, char* buf) {
  if (!std::isfinite(v)) {
    const std::string_view s = std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf";
    std::memcpy(buf, s.data(), s.size());
    return s.size();
  }
  if (const size_t len = FormatShortDecimal(v, buf)) return len;
  char* const limit = buf + kFormatDoubleBufSize;
  // No "%.{p}g" with fewer significant digits than the shortest round-trip
  // form can round-trip, so the search for the smallest p starts there.
  char* end = std::to_chars(buf, limit, v, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c < end && *c != 'e'; ++c) {
    prec += std::isdigit(static_cast<unsigned char>(*c)) ? 1 : 0;
  }
  // std::to_chars with a precision is printf's "%.{p}g". Its correctly
  // rounded p digits can still miss the round-trip interval (which is
  // asymmetric at powers of two), so check and widen as needed.
  for (;; ++prec) {
    end = std::to_chars(buf, limit, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v || prec >= 17) break;
  }
  return static_cast<size_t>(end - buf);
}

std::string FormatDouble(double v) {
  char buf[kFormatDoubleBufSize];
  return std::string(buf, FormatDoubleTo(v, buf));
}

namespace {

/// Writes `v` (0-99) as two digits.
char* TwoDigits(unsigned v, char* out) {
  out[0] = static_cast<char>('0' + v / 10);
  out[1] = static_cast<char>('0' + v % 10);
  return out + 2;
}

}  // namespace

size_t FormatTimestampTo(int64_t micros, char* buf) {
  const int64_t secs = micros / 1000000;  // toward zero
  int64_t days = secs / 86400;
  int64_t sod = secs % 86400;
  if (sod < 0) {
    sod += 86400;
    --days;
  }
  // Days since 1970-01-01 to a proleptic Gregorian date, in 400-year eras
  // of 146 097 days counted from 0000-03-01 (Hinnant's civil_from_days).
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;
  const unsigned month = mp < 10 ? mp + 3 : mp - 9;
  const int64_t year = static_cast<int64_t>(yoe) + era * 400 + (month <= 2);

  // "%04d" of the year: zero-padded to four characters, sign included.
  char* out = buf;
  if (year < 0) *out++ = '-';
  const uint64_t abs_year =
      year < 0 ? 0 - static_cast<uint64_t>(year) : static_cast<uint64_t>(year);
  char digits[20];
  const char* end =
      std::to_chars(digits, digits + sizeof(digits), abs_year).ptr;
  for (int64_t pad = 4 - (out - buf) - (end - digits); pad > 0; --pad) {
    *out++ = '0';
  }
  out = std::copy(static_cast<const char*>(digits), end, out);
  *out++ = '-';
  out = TwoDigits(month, out);
  *out++ = '-';
  out = TwoDigits(day, out);
  *out++ = ' ';
  const auto s = static_cast<unsigned>(sod);
  out = TwoDigits(s / 3600, out);
  *out++ = ':';
  out = TwoDigits(s / 60 % 60, out);
  *out++ = ':';
  out = TwoDigits(s % 60, out);
  return static_cast<size_t>(out - buf);
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string FormatFixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace bento
