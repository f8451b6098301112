// Small string-formatting helpers. libstdc++ 12 does not ship <format>,
// so the project uses stream concatenation (`cat`) and snprintf-backed
// numeric formatting instead.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace idseval::util {

/// Streams all arguments into one string: cat("x=", 3, " y=", 4.5).
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream out;
  ((out << std::forward<Args>(args)), ...);
  return out.str();
}

/// Fixed-point double: fmt_fixed(3.14159, 2) == "3.14".
inline std::string fmt_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace idseval::util
