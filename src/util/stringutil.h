#ifndef FDM_UTIL_STRINGUTIL_H_
#define FDM_UTIL_STRINGUTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fdm {

/// Splits `text` on `sep`, keeping empty fields (CSV semantics).
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Fixed-precision decimal formatting (e.g. `FormatDouble(3.14159, 3)` ->
/// `"3.142"`). Unlike `std::to_string`, precision is caller-controlled.
std::string FormatDouble(double value, int precision);

/// Appends `value` as a default `std::ostream` prints it (`%g`, six
/// significant digits; `inf`, `-nan`, ...), without a stream.
void AppendGeneral(double value, std::string* out);

/// Human-friendly engineering formatting for counts: `1234567` -> `"1.23M"`.
std::string FormatCount(double value);

/// Checked decimal parse of all of `text`: false (never an exception, unlike
/// `std::stoull`) on an empty string, a stray character, or overflow.
/// `ParseUint64` takes no sign, so a negative value is rejected too.
bool ParseInt64(std::string_view text, int64_t* value);
bool ParseUint64(std::string_view text, uint64_t* value);

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Left-pads (`PadLeft`) or right-pads (`PadRight`) with spaces to `width`.
std::string PadLeft(std::string_view text, size_t width);
std::string PadRight(std::string_view text, size_t width);

}  // namespace fdm

#endif  // FDM_UTIL_STRINGUTIL_H_
