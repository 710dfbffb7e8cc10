#include "exp/args.hpp"

#include <cstdio>
#include <cstdlib>

namespace dws::exp {

support::Status parse_f64(std::string_view flag, std::string_view value,
                          double* out) {
  // std::from_chars<double> is spotty across standard libraries; strtod is
  // universal and the inputs are CLI-sized.
  const std::string copy(value);
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    return support::Status::error(std::string(flag) + ": '" + copy +
                                  "' is not a number");
  }
  *out = parsed;
  return support::Status::ok();
}

ArgSpec::ArgSpec(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

ArgSpec& ArgSpec::option(std::string long_flag, std::string short_flag,
                         std::string value_name, std::string help,
                         Parser parse) {
  options_.push_back({std::move(long_flag), std::move(short_flag),
                      std::move(value_name), std::move(help),
                      std::move(parse)});
  return *this;
}

ArgSpec& ArgSpec::u32(std::string long_flag, std::string short_flag,
                      std::string help, std::uint32_t* out) {
  const std::string flag = long_flag;
  return option(std::move(long_flag), std::move(short_flag), "N",
                std::move(help), [flag, out](std::string_view v) {
                  return parse_number(flag, v, out);
                });
}

ArgSpec& ArgSpec::u64(std::string long_flag, std::string short_flag,
                      std::string help, std::uint64_t* out) {
  const std::string flag = long_flag;
  return option(std::move(long_flag), std::move(short_flag), "N",
                std::move(help), [flag, out](std::string_view v) {
                  return parse_number(flag, v, out);
                });
}

ArgSpec& ArgSpec::f64(std::string long_flag, std::string short_flag,
                      std::string help, double* out) {
  const std::string flag = long_flag;
  return option(std::move(long_flag), std::move(short_flag), "X",
                std::move(help), [flag, out](std::string_view v) {
                  return parse_f64(flag, v, out);
                });
}

ArgSpec& ArgSpec::str(std::string long_flag, std::string short_flag,
                      std::string help, std::string* out) {
  return option(std::move(long_flag), std::move(short_flag), "S",
                std::move(help), [out](std::string_view v) {
                  *out = std::string(v);
                  return support::Status::ok();
                });
}

ArgSpec& ArgSpec::toggle(std::string long_flag, std::string short_flag,
                         std::string help, bool* out) {
  return option(std::move(long_flag), std::move(short_flag), "",
                std::move(help), [out](std::string_view) {
                  *out = true;
                  return support::Status::ok();
                });
}

const ArgSpec::Option* ArgSpec::find(std::string_view flag) const {
  for (const Option& o : options_) {
    if (flag == o.long_flag || (!o.short_flag.empty() && flag == o.short_flag)) {
      return &o;
    }
  }
  return nullptr;
}

support::Status ArgSpec::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      help_requested_ = true;
      std::fputs(usage().c_str(), stdout);
      return support::Status::ok();
    }
    const Option* o = find(flag);
    if (o == nullptr) {
      return support::Status::error("unknown flag '" + std::string(flag) +
                                    "' (see --help)");
    }
    if (o->value_name.empty()) {  // toggle
      if (const auto s = o->parse(""); !s) return s;
      continue;
    }
    if (i + 1 >= argc) {
      return support::Status::error(std::string(flag) + " needs a value");
    }
    if (const auto s = o->parse(argv[++i]); !s) return s;
  }
  return support::Status::ok();
}

std::string ArgSpec::usage() const {
  std::string out = program_ + " — " + summary_ + "\n\nOptions:\n";
  for (const Option& o : options_) {
    std::string flags = "  " + o.long_flag;
    if (!o.short_flag.empty()) flags += ", " + o.short_flag;
    if (!o.value_name.empty()) flags += " <" + o.value_name + ">";
    while (flags.size() < 28) flags += ' ';
    out += flags + " " + o.help + "\n";
  }
  out += "  --help, -h                 show this help\n";
  return out;
}

support::Expected<ws::VictimPolicy> parse_policy(std::string_view s) {
  using E = support::Expected<ws::VictimPolicy>;
  if (s == "ref" || s == "reference") return ws::VictimPolicy::kRoundRobin;
  if (s == "rand" || s == "random") return ws::VictimPolicy::kRandom;
  if (s == "tofu") return ws::VictimPolicy::kTofuSkewed;
  if (s == "hier") return ws::VictimPolicy::kHierarchical;
  if (s == "adaptive" || s == "adapt") return ws::VictimPolicy::kAdaptive;
  return E::failure("victim policy must be " +
                    std::string(policy_flag_values()) + ", got '" +
                    std::string(s) + "'");
}

support::Expected<ws::StealAmount> parse_steal(std::string_view s) {
  using E = support::Expected<ws::StealAmount>;
  if (s == "1" || s == "one" || s == "chunk") return ws::StealAmount::kOneChunk;
  if (s == "half") return ws::StealAmount::kHalf;
  return E::failure("steal amount must be " +
                    std::string(steal_flag_values()) + ", got '" +
                    std::string(s) + "'");
}

support::Expected<topo::Placement> parse_placement(std::string_view s) {
  using E = support::Expected<topo::Placement>;
  if (s == "1n" || s == "1/N" || s == "1/n") return topo::Placement::kOnePerNode;
  if (s == "rr" || s == "8RR" || s == "8rr") return topo::Placement::kRoundRobin;
  if (s == "g" || s == "8G" || s == "8g") return topo::Placement::kGrouped;
  return E::failure("placement must be " +
                    std::string(placement_flag_values()) + ", got '" +
                    std::string(s) + "'");
}

support::Expected<ws::IdlePolicy> parse_idle(std::string_view s) {
  using E = support::Expected<ws::IdlePolicy>;
  if (s == "persistent" || s == "steal") return ws::IdlePolicy::kPersistentSteal;
  if (s == "lifeline") return ws::IdlePolicy::kLifeline;
  return E::failure("idle policy must be " + std::string(idle_flag_values()) +
                    ", got '" + std::string(s) + "'");
}

const char* policy_flag_values() { return "ref|rand|tofu|hier|adaptive"; }
const char* steal_flag_values() { return "1|half"; }
const char* placement_flag_values() { return "1n|rr|g"; }
const char* idle_flag_values() { return "persistent|lifeline"; }

std::vector<std::string> split_list(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    const std::string_view piece =
        s.substr(start, end == std::string_view::npos ? end : end - start);
    if (!piece.empty()) out.emplace_back(piece);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

}  // namespace dws::exp
