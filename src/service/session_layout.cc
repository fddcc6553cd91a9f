#include "service/session_layout.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace fdm {

bool IsValidSessionName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  if (name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string SessionSpecPath(const std::string& dir) { return dir + "/SPEC"; }
std::string SessionWalDir(const std::string& dir) { return dir + "/wal"; }
std::string SessionSnapDir(const std::string& dir) { return dir + "/snap"; }
std::string SessionReplAdvertPath(const std::string& dir) {
  return dir + "/REPL";
}

std::string SessionSnapshotFileName(int64_t seq) {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020lld.snap",
                static_cast<long long>(seq));
  return name;
}

std::vector<std::pair<int64_t, std::string>> ListSessionSnapshots(
    const std::string& snap_dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(snap_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0 ||
        name.size() < 6 + 5 ||  // "snap-" + at least one digit + ".snap"
        name.substr(name.size() - 5) != ".snap") {
      continue;
    }
    char* end = nullptr;
    const long long seq = std::strtoll(name.c_str() + 5, &end, 10);
    if (end == nullptr || std::strcmp(end, ".snap") != 0 || seq < 1) continue;
    found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace fdm
