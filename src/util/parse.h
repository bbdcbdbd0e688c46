// Strict full-string numeric parsing on std::from_chars.
//
// The std::sto* family silently accepts trailing garbage ("12abc" -> 12),
// lets std::stoul wrap negative inputs around, and throws bare
// std::invalid_argument with no context — all of which turn malformed
// input files into silently wrong data. These helpers succeed only when
// the ENTIRE string is a valid value of the requested type: no leading or
// trailing whitespace, no trailing characters, no negative values for
// unsigned types, and range-checked. The wb_analyze legacy `no-stox`
// rule forbids std::sto* in src/ in favour of these.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace wb::util {

/// Parse the whole of `s` as a value of arithmetic type T (integers in
/// base 10, doubles in the default chars_format). Returns false — leaving
/// `out` untouched — on empty input, trailing characters, sign mismatch,
/// or out-of-range values.
template <typename T>
bool parse_full(std::string_view s, T& out) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  out = value;
  return true;
}

}  // namespace wb::util
