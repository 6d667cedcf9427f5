#ifndef BENTO_UTIL_STRING_UTIL_H_
#define BENTO_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bento {

/// \brief Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// \brief Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// \brief Removes ASCII whitespace from both ends.
std::string_view StrTrim(std::string_view s);

/// \brief ASCII lower-cased copy.
std::string AsciiToLower(std::string_view s);

/// \brief ASCII upper-cased copy.
std::string AsciiToUpper(std::string_view s);

/// \brief True if `hay` contains `needle` (plain substring search).
bool StrContains(std::string_view hay, std::string_view needle);

bool StrStartsWith(std::string_view s, std::string_view prefix);
bool StrEndsWith(std::string_view s, std::string_view suffix);

/// \brief Strict parse of the whole string; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);
Result<bool> ParseBool(std::string_view s);

/// \brief Buffer size FormatDoubleTo needs ("%.17g" of any double fits).
inline constexpr size_t kFormatDoubleBufSize = 32;

/// \brief Writes `v` into `buf` (kFormatDoubleBufSize chars, not
/// NUL-terminated) and returns the length: "%.{p}g" with the smallest
/// precision p that parses back to `v`, independent of locale; non-finite
/// values are "nan", "inf" and "-inf".
size_t FormatDoubleTo(double v, char* buf);

/// \brief FormatDoubleTo as a string; the CSV writer's float text.
std::string FormatDouble(double v);

/// \brief Buffer size FormatTimestampTo needs (any int64 of microseconds).
inline constexpr size_t kFormatTimestampBufSize = 32;

/// \brief Writes the UTC time `micros` microseconds after the epoch into
/// `buf` (kFormatTimestampBufSize chars, not NUL-terminated) and returns the
/// length: "%04d-%02d-%02d %02d:%02d:%02d" of the proleptic Gregorian date
/// and time of `micros / 1000000` seconds (truncated toward zero), the
/// bytes Array::ValueToString writes through gmtime_r.
size_t FormatTimestampTo(int64_t micros, char* buf);

/// \brief "1.5 GiB"-style human-readable byte count for reports.
std::string HumanBytes(uint64_t bytes);

/// \brief "%8.3f"-style fixed formatting helper for report tables.
std::string FormatFixed(double v, int precision);

}  // namespace bento

#endif  // BENTO_UTIL_STRING_UTIL_H_
