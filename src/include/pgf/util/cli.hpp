// Minimal command-line flag parser for pgfcli and the bench/example
// binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Unknown positional arguments are collected in order. Each command names
// the flags it reads through check_flags(), so a mistyped or retired flag
// is a usage error instead of being silently ignored.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pgf {

class Cli {
public:
    Cli(int argc, const char* const* argv);

    /// True if the flag was present (with or without a value).
    bool has(const std::string& name) const;

    std::string get_string(const std::string& name,
                           const std::string& fallback) const;
    std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
    double get_double(const std::string& name, double fallback) const;
    /// `--name`, `--name=true/1/yes/on` → true; `--name=false/0/no/off` → false.
    bool get_bool(const std::string& name, bool fallback) const;

    /// True when every flag given is one of `known` — the flags the
    /// command reads. Otherwise prints "<program>: unknown flag --<name>"
    /// to stderr for the first other flag and returns false; the caller
    /// exits 2 (usage).
    bool check_flags(std::initializer_list<std::string_view> known) const;

    const std::vector<std::string>& positional() const { return positional_; }
    const std::string& program() const { return program_; }

private:
    std::optional<std::string> raw(const std::string& name) const;

    std::string program_;
    std::map<std::string, std::string> flags_;  // empty string = bare flag
    std::vector<std::string> positional_;
};

}  // namespace pgf
