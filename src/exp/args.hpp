#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/expected.hpp"
#include "topo/allocation.hpp"
#include "ws/config.hpp"

namespace dws::exp {

/// Declarative `--flag value` command-line parsing, shared by every binary
/// in the suite so they all speak the same vocabulary (--ranks, --policy,
/// --tree, --seed, --out, ...). Deliberately tiny: long flags with optional
/// short aliases, typed sinks, generated usage text, errors as Status
/// instead of exit() so tests can drive it.
class ArgSpec {
 public:
  ArgSpec(std::string program, std::string summary);

  using Parser = std::function<support::Status(std::string_view value)>;

  /// A flag taking one value. `short_flag` may be empty.
  ArgSpec& option(std::string long_flag, std::string short_flag,
                  std::string value_name, std::string help, Parser parse);

  // Typed conveniences writing straight into a variable.
  ArgSpec& u32(std::string long_flag, std::string short_flag, std::string help,
               std::uint32_t* out);
  ArgSpec& u64(std::string long_flag, std::string short_flag, std::string help,
               std::uint64_t* out);
  ArgSpec& f64(std::string long_flag, std::string short_flag, std::string help,
               double* out);
  ArgSpec& str(std::string long_flag, std::string short_flag, std::string help,
               std::string* out);
  /// A boolean switch taking no value.
  ArgSpec& toggle(std::string long_flag, std::string short_flag,
                  std::string help, bool* out);

  /// Parses argv. `--help`/`-h` prints usage() to stdout and reports
  /// help_requested() so mains can exit 0. Unknown flags, missing values and
  /// sink parse failures come back as an error Status naming the flag.
  support::Status parse(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_requested_; }
  std::string usage() const;

 private:
  struct Option {
    std::string long_flag;
    std::string short_flag;
    std::string value_name;  // empty => toggle
    std::string help;
    Parser parse;
  };
  const Option* find(std::string_view flag) const;

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  bool help_requested_ = false;
};

// ---- The shared experiment vocabulary ---------------------------------------

/// "ref|rand|tofu|hier" (the figure legends' names, lowercased).
support::Expected<ws::VictimPolicy> parse_policy(std::string_view s);
/// "1|one|chunk" or "half".
support::Expected<ws::StealAmount> parse_steal(std::string_view s);
/// "1n|1/N" / "rr|8RR" / "g|8G".
support::Expected<topo::Placement> parse_placement(std::string_view s);
/// "persistent" or "lifeline".
support::Expected<ws::IdlePolicy> parse_idle(std::string_view s);

const char* policy_flag_values();     ///< "ref|rand|tofu|hier"
const char* steal_flag_values();      ///< "1|half"
const char* placement_flag_values();  ///< "1n|rr|g"
const char* idle_flag_values();       ///< "persistent|lifeline"

/// Whole-value number parsing, behind u32/u64/f64: `value` must be one
/// base-10 integer that fits T (parse_number) or one strtod number
/// (parse_f64), with nothing after it. On failure `*out` is untouched and
/// the error reads "<flag>: '<value>' is not a number".
template <typename T>
support::Status parse_number(std::string_view flag, std::string_view value,
                             T* out) {
  T parsed{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    return support::Status::error(std::string(flag) + ": '" +
                                  std::string(value) + "' is not a number");
  }
  *out = parsed;
  return support::Status::ok();
}
support::Status parse_f64(std::string_view flag, std::string_view value,
                          double* out);

/// Split "a,b,c" (empty segments dropped).
std::vector<std::string> split_list(std::string_view s, char sep = ',');

}  // namespace dws::exp
