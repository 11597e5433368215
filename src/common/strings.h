// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_STRINGS_H_
#define EFIND_COMMON_STRINGS_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace efind {

/// Splits `s` on `delim` into a vector of views (no copies). Empty fields
/// are preserved: Split("a||b", '|') -> {"a", "", "b"}. The vector is sized
/// once, from a count of the delimiters.
inline std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  out.reserve(static_cast<size_t>(std::count(s.begin(), s.end(), delim)) + 1);
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Joins `parts` with `delim`.
inline std::string Join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

}  // namespace efind

#endif  // EFIND_COMMON_STRINGS_H_
