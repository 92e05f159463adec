// Tiny command-line flag parser for example and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags and positional arguments are errors so
// typos do not silently run the default experiment: `--trace false`
// fails on `false` instead of reading as `--trace` plus a stray word.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace qv {

class Flags {
 public:
  /// Parse argv. Returns false (and prints to stderr) on malformed or
  /// unknown flags; callers should exit non-zero.
  bool parse(int argc, char** argv);

  /// Declare flags before parse(); declaration supplies the default and
  /// the help text printed by `--help`. parse() rejects an int below
  /// `min_value`.
  void define_int(const std::string& name, std::int64_t default_value,
                  const std::string& help,
                  std::int64_t min_value =
                      std::numeric_limits<std::int64_t>::min());
  void define_double(const std::string& name, double default_value,
                     const std::string& help);
  void define_string(const std::string& name, const std::string& default_value,
                     const std::string& help);
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True if --help was requested; parse() already printed usage.
  bool help_requested() const { return help_requested_; }

 private:
  enum class Type { kInt, kDouble, kString, kBool };

  struct Def {
    Type type;
    std::string help;
    std::int64_t int_value = 0;
    std::int64_t int_min = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  bool set_value(const std::string& name, const std::string& value);
  void print_usage(const char* prog) const;

  std::map<std::string, Def> defs_;
  bool help_requested_ = false;
};

}  // namespace qv
