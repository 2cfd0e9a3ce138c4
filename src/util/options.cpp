#include "util/options.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace balbench::util {

namespace {

[[noreturn]] void bad_number(const std::string& what, const char* want,
                             const std::string& text) {
  throw std::invalid_argument(what + " wants " + want + ", got '" + text +
                              "'");
}

}  // namespace

std::int64_t parse_int(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    bad_number(what, "an integer", text);
  }
  if (used != text.size()) bad_number(what, "an integer", text);
  return value;
}

double parse_double(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    bad_number(what, "a finite number", text);
  }
  if (used != text.size() || !std::isfinite(value)) {
    bad_number(what, "a finite number", text);
  }
  return value;
}

Options::Options(std::string program_description)
    : description_(std::move(program_description)) {}

void Options::add(const std::string& name, Spec spec) {
  if (specs_.count(name) != 0) {
    throw std::logic_error("Options: duplicate option --" + name);
  }
  specs_.emplace(name, std::move(spec));
  order_.push_back(name);
}

void Options::add_flag(const std::string& name, bool* target, const std::string& help) {
  add(name, Spec{Spec::Kind::Flag, target, help, *target ? "true" : "false"});
}

void Options::add_int(const std::string& name, std::int64_t* target,
                      const std::string& help) {
  add(name, Spec{Spec::Kind::Int, target, help, std::to_string(*target)});
}

void Options::add_double(const std::string& name, double* target,
                         const std::string& help) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", *target);
  add(name, Spec{Spec::Kind::Double, target, help, buf});
}

void Options::add_string(const std::string& name, std::string* target,
                         const std::string& help) {
  add(name, Spec{Spec::Kind::String, target, help, "'" + *target + "'"});
}

void Options::add_jobs(std::int64_t* target, const std::string& what) {
  add_int("jobs", target,
          "worker threads for " + what +
              "; output is byte-identical for every value"
              " (0 = all hardware threads, 1 = serial)");
}

void Options::add_positionals(std::vector<std::string>* target,
                              const std::string& name,
                              const std::string& help) {
  positionals_ = target;
  positional_name_ = name;
  positional_help_ = help;
}

bool Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (positionals_ != nullptr) {
        positionals_->push_back(arg);
        continue;
      }
      throw std::invalid_argument("unexpected positional argument '" + arg +
                                  "'\n" + help());
    }
    arg = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      have_value = true;
    }
    auto it = specs_.find(arg);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown option --" + arg + "\n" + help());
    }
    Spec& spec = it->second;
    if (spec.kind == Spec::Kind::Flag) {
      if (have_value) {
        *static_cast<bool*>(spec.target) = (value == "1" || value == "true");
      } else {
        *static_cast<bool*>(spec.target) = true;
      }
      continue;
    }
    if (!have_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option --" + arg + " needs a value");
      }
      value = argv[++i];
    }
    switch (spec.kind) {
      case Spec::Kind::Int:
        *static_cast<std::int64_t*>(spec.target) = parse_int(value, "--" + arg);
        break;
      case Spec::Kind::Double:
        *static_cast<double*>(spec.target) = parse_double(value, "--" + arg);
        break;
      case Spec::Kind::String:
        *static_cast<std::string*>(spec.target) = value;
        break;
      case Spec::Kind::Flag:
        break;
    }
  }
  return true;
}

std::string Options::help() const {
  std::ostringstream oss;
  oss << description_ << "\n";
  if (positionals_ != nullptr) {
    oss << "\npositional arguments:\n  " << positional_name_ << "...\n        "
        << positional_help_ << "\n";
  }
  oss << "\noptions:\n";
  for (const auto& name : order_) {
    const Spec& s = specs_.at(name);
    oss << "  --" << name;
    switch (s.kind) {
      case Spec::Kind::Flag: break;
      case Spec::Kind::Int: oss << " <int>"; break;
      case Spec::Kind::Double: oss << " <float>"; break;
      case Spec::Kind::String: oss << " <str>"; break;
    }
    oss << "\n        " << s.help << " (default: " << s.default_repr << ")\n";
  }
  oss << "  --help\n        show this message\n";
  return oss.str();
}

}  // namespace balbench::util
