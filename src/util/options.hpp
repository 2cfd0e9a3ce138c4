// Minimal command-line option parser for the bench/example binaries.
//
// Supports "--name value", "--name=value" and boolean "--flag".
// Unknown options raise an error listing the registered ones, so every
// binary gets a usable --help for free.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace balbench::util {

/// Strict number parsing: the whole of `text` must parse, and a double
/// must be finite.  Throws std::invalid_argument naming `what` (e.g.
/// "--threshold") otherwise.  Options uses these for every int and
/// float value; tools use them for numbers inside their own syntax.
std::int64_t parse_int(const std::string& text, const std::string& what);
double parse_double(const std::string& text, const std::string& what);

class Options {
 public:
  explicit Options(std::string program_description);

  void add_flag(const std::string& name, bool* target, const std::string& help);
  void add_int(const std::string& name, std::int64_t* target, const std::string& help);
  void add_double(const std::string& name, double* target, const std::string& help);
  void add_string(const std::string& name, std::string* target, const std::string& help);

  /// Registers the standard `--jobs N` option: worker threads for the
  /// parallel sweep scheduler (util/parallel.hpp).  `what` names the
  /// sweep being parallelized (shown in --help).  The scheduler's
  /// ordered reduction guarantees byte-identical output for every N;
  /// 0 means "all hardware threads", 1 restores serial execution.  The
  /// parsed value is clamped into [0, kMaxJobs] (util/parallel.hpp), so
  /// it fits an int and a negative one still means every thread.
  void add_jobs(std::int64_t* target, const std::string& what);

  /// Accepts positional (non "--") arguments, collected into `target`
  /// in command-line order.  `name` is the metavar shown in --help
  /// (e.g. "FILE").  Without this registration positionals stay an
  /// error, so existing binaries keep rejecting stray arguments.
  void add_positionals(std::vector<std::string>* target,
                       const std::string& name, const std::string& help);

  /// Parses argv.  Returns false if --help was requested (help text is
  /// printed to stdout).  Throws std::invalid_argument on bad input,
  /// including an int or float value that does not parse whole or a
  /// float that is not finite (nan, inf).
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    enum class Kind { Flag, Int, Jobs, Double, String } kind;
    void* target;
    std::string help;
    std::string default_repr;
  };

  void add(const std::string& name, Spec spec);
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string>* positionals_ = nullptr;
  std::string positional_name_;
  std::string positional_help_;
};

}  // namespace balbench::util
