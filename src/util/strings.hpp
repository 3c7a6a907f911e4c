// Small string helpers shared by the .g parser and the report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace stgcheck {

/// Splits `text` on any amount of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Equality with '-' and '_' interchangeable on both sides: the rule the
/// CLI name parsers (--engine, --ordering) match user input against the
/// canonical to_string names with.
bool names_equal_dashed(std::string_view a, std::string_view b);

/// Formats `value` with thousands separators ("1234567" -> "1,234,567").
std::string with_commas(unsigned long long value);

/// Formats a double as a compact human-readable count ("1.2e+18" for huge
/// values, plain digits with separators below 10^15).
std::string format_count(double value);

}  // namespace stgcheck
