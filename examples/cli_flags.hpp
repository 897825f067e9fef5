// --name=value flag parsing for the serving daemon, its CI checker and the
// throughput benches.
//
// Strict on purpose: a flag the program never asks for, a repeated flag,
// an argument that is not --name=value, or a numeric value that does not
// parse in full is an error at startup. A daemon that silently ran on the
// default after a typo ("--thread=2", "--port=80x") would serve with a
// configuration nobody asked for, and a bench would gate a measurement
// nobody asked for.
#pragma once

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/text_parse.hpp"

namespace estima::examples {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* eq = std::strchr(arg, '=');
      if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr || eq == arg + 2) {
        note_error(std::string("expected --name=value, got '") + arg + "'");
        continue;
      }
      Arg a{std::string(arg + 2, eq), std::string(eq + 1)};
      for (const Arg& prev : args_) {
        if (prev.name == a.name) {
          note_error("--" + a.name + " given more than once");
        }
      }
      args_.push_back(std::move(a));
    }
  }

  /// The value of --name, or `dflt` when absent.
  std::string str(const char* name, const std::string& dflt) {
    const Arg* a = take(name);
    return a ? a->value : dflt;
  }

  /// The whole-cell integer value of --name, or `dflt` when absent.
  int integer(const char* name, int dflt) {
    const Arg* a = take(name);
    if (!a) return dflt;
    const auto v = core::textparse::parse_i32(a->value);
    if (!v) {
      note_error("--" + a->name + " needs an integer, got '" + a->value +
                 "'");
      return dflt;
    }
    return *v;
  }

  /// The whole-cell number value of --name, or `dflt` when absent.
  double number(const char* name, double dflt) {
    const Arg* a = take(name);
    if (!a) return dflt;
    const auto v = core::textparse::parse_f64(a->value);
    if (!v) {
      note_error("--" + a->name + " needs a number, got '" + a->value + "'");
      return dflt;
    }
    return *v;
  }

  /// Call after every flag has been read: the first malformed, repeated
  /// or unknown argument, or nullopt when the command line is clean.
  std::optional<std::string> error() const {
    if (error_) return error_;
    for (const Arg& a : args_) {
      if (!a.used) return "unknown flag --" + a.name;
    }
    return std::nullopt;
  }

 private:
  struct Arg {
    std::string name;
    std::string value;
    bool used = false;
  };

  Arg* take(const char* name) {
    for (Arg& a : args_) {
      if (a.name == name) {
        a.used = true;
        return &a;
      }
    }
    return nullptr;
  }

  void note_error(std::string what) {
    if (!error_) error_ = std::move(what);
  }

  std::vector<Arg> args_;
  std::optional<std::string> error_;
};

}  // namespace estima::examples
