#include "util/argparse.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fdm {

ArgParser::ArgParser(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

bool ArgParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int64_t ArgParser::GetInt(const std::string& name, int64_t def, int64_t min,
                          int64_t max) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  const char* end = it->second.data() + it->second.size();
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(it->second.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) {
    UsageError(name, "an integer in [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]");
  }
  return v;
}

double ArgParser::GetDouble(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return def;
  const char* end = it->second.data() + it->second.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(it->second.data(), end, v);
  if (ec != std::errc() || ptr != end) UsageError(name, "a number");
  return v;
}

void ArgParser::UsageError(const std::string& name,
                           const std::string& want) const {
  std::fprintf(stderr, "%s: --%s=%s is not %s\nusage: --%s=<%s>\n",
               program_.substr(program_.find_last_of('/') + 1).c_str(),
               name.c_str(), flags_.at(name).c_str(), want.c_str(),
               name.c_str(), want.c_str());
  std::exit(1);
}

bool ArgParser::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return def;
}

}  // namespace fdm
