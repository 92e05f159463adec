#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace qv {

void Flags::define_int(const std::string& name, std::int64_t default_value,
                       const std::string& help, std::int64_t min_value) {
  Def d;
  d.type = Type::kInt;
  d.help = help;
  d.int_value = default_value;
  d.int_min = min_value;
  defs_[name] = std::move(d);
}

void Flags::define_double(const std::string& name, double default_value,
                          const std::string& help) {
  Def d;
  d.type = Type::kDouble;
  d.help = help;
  d.double_value = default_value;
  defs_[name] = std::move(d);
}

void Flags::define_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  Def d;
  d.type = Type::kString;
  d.help = help;
  d.string_value = default_value;
  defs_[name] = std::move(d);
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  Def d;
  d.type = Type::kBool;
  d.help = help;
  d.bool_value = default_value;
  defs_[name] = std::move(d);
}

bool Flags::set_value(const std::string& name, const std::string& value) {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    return false;
  }
  Def& d = it->second;
  try {
    switch (d.type) {
      case Type::kInt:
        d.int_value = std::stoll(value);
        if (d.int_value < d.int_min) {
          std::fprintf(stderr, "bad value for --%s: %s (must be >= %lld)\n",
                       name.c_str(), value.c_str(),
                       static_cast<long long>(d.int_min));
          return false;
        }
        break;
      case Type::kDouble:
        d.double_value = std::stod(value);
        break;
      case Type::kString:
        d.string_value = value;
        break;
      case Type::kBool:
        if (value == "true" || value == "1") {
          d.bool_value = true;
        } else if (value == "false" || value == "0") {
          d.bool_value = false;
        } else {
          std::fprintf(stderr, "bad boolean for --%s: %s\n", name.c_str(),
                       value.c_str());
          return false;
        }
        break;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(),
                 value.c_str());
    return false;
  }
  return true;
}

void Flags::print_usage(const char* prog) const {
  std::fprintf(stderr, "usage: %s [flags]\n", prog);
  for (const auto& [name, d] : defs_) {
    const char* type = "";
    std::string def;
    switch (d.type) {
      case Type::kInt:
        type = "int";
        def = std::to_string(d.int_value);
        break;
      case Type::kDouble:
        type = "double";
        def = std::to_string(d.double_value);
        break;
      case Type::kString:
        type = "string";
        def = d.string_value;
        break;
      case Type::kBool:
        type = "bool";
        def = d.bool_value ? "true" : "false";
        break;
    }
    std::fprintf(stderr, "  --%s (%s, default %s)\n      %s\n", name.c_str(),
                 type, def.c_str(), d.help.c_str());
  }
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      if (!set_value(body.substr(0, eq), body.substr(eq + 1))) return false;
      continue;
    }
    // --no-name for booleans.
    if (body.rfind("no-", 0) == 0) {
      auto it = defs_.find(body.substr(3));
      if (it != defs_.end() && it->second.type == Type::kBool) {
        it->second.bool_value = false;
        continue;
      }
    }
    auto it = defs_.find(body);
    if (it == defs_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", body.c_str());
      return false;
    }
    if (it->second.type == Type::kBool) {
      it->second.bool_value = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag --%s needs a value\n", body.c_str());
      return false;
    }
    if (!set_value(body, argv[++i])) return false;
  }
  return true;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return defs_.at(name).int_value;
}

double Flags::get_double(const std::string& name) const {
  return defs_.at(name).double_value;
}

const std::string& Flags::get_string(const std::string& name) const {
  return defs_.at(name).string_value;
}

bool Flags::get_bool(const std::string& name) const {
  return defs_.at(name).bool_value;
}

}  // namespace qv
