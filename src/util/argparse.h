#ifndef FDM_UTIL_ARGPARSE_H_
#define FDM_UTIL_ARGPARSE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fdm {

/// Minimal `--flag[=value]` command-line parser for bench and example
/// binaries.
///
/// Every bench binary must run argument-free (the reproduction driver runs
/// `for b in build/bench/*; do $b; done`), so all flags have defaults and
/// unknown flags are reported but non-fatal. A numeric flag that is given
/// must parse, though: a malformed or out-of-range value prints a usage
/// line to stderr and exits 1.
class ArgParser {
 public:
  /// Parses `argv`. Accepts `--name=value`, `--name value`, and bare
  /// `--name` (boolean true).
  ArgParser(int argc, char** argv);

  /// True iff `--name` was passed (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of `--name`, or `def` if absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Integer value of `--name` (base 10, no trailing characters, in
  /// `[min, max]`; counts pass `min = 0`), or `def` if absent or bare.
  int64_t GetInt(const std::string& name, int64_t def, int64_t min = INT64_MIN,
                 int64_t max = INT64_MAX) const;

  /// Double value of `--name` (no trailing characters, in double range),
  /// or `def` if absent or bare.
  double GetDouble(const std::string& name, double def) const;

  /// Boolean value: `--name` alone or `--name=true|1|yes` is true;
  /// `--name=false|0|no` is false; absent yields `def`.
  bool GetBool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Name of the binary (argv[0]).
  const std::string& program() const { return program_; }

 private:
  [[noreturn]] void UsageError(const std::string& name,
                               const std::string& want) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fdm

#endif  // FDM_UTIL_ARGPARSE_H_
