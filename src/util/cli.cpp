#include "util/cli.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace ssau::util {

namespace {

/// The flag's value as a T (util::parse_number), or std::invalid_argument
/// naming the flag: `--n=8junk` must not run as `--n=8`.
template <typename T>
T flag_number(const std::string& name, const std::string& value) {
  if (const auto parsed = parse_number<T>(value)) return *parsed;
  throw std::invalid_argument("--" + name + ": malformed number '" + value +
                              "'");
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : flag_number<std::int64_t>(name, *value);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : flag_number<double>(name, *value);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

void Cli::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) {
      unread += (unread.empty() ? "--" : ", --") + name;
    }
  }
  if (!unread.empty()) {
    throw std::invalid_argument("unknown flag(s): " + unread);
  }
}

}  // namespace ssau::util
