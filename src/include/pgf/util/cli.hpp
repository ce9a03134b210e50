// Minimal command-line flag parser for pgfcli and the bench/example
// binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Unknown positional arguments are collected in order. Each command names
// the flags it reads through check_flags(), so a mistyped or retired flag
// — or one given twice — is a usage error instead of being silently
// ignored or overridden.
//
// Values are strict: a value flag needs a value (only get_bool reads a
// bare `--name`), a number must be the whole token and fit the type it is
// read as (a count read as an unsigned type rejects "-5"), and a bool
// must be a word get_bool knows. Anything else throws UsageError naming
// the flag; every binary exits 2 (usage) on it. The PGF_* environment
// overrides go through the same parse (env_int).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pgf {

/// A malformed flag or environment value; what() names it.
class UsageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parses `token` as a base-10 integer of type T: the whole token, within
/// T's range. Otherwise throws UsageError naming `what` (a flag or an
/// environment variable).
template <std::integral T>
T parse_int(std::string_view what, std::string_view token) {
    T value{};
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc{} || stop != end) {
        throw UsageError(std::string(what) + ": expected an integer in [" +
                         std::to_string(std::numeric_limits<T>::min()) +
                         ", " +
                         std::to_string(std::numeric_limits<T>::max()) +
                         "], got '" + std::string(token) + "'");
    }
    return value;
}

/// The value of environment variable `var` parsed as parse_int<T> does,
/// or nullopt when it is unset or empty.
template <std::integral T>
std::optional<T> env_int(const char* var) {
    const char* value = std::getenv(var);
    if (value == nullptr || *value == '\0') return std::nullopt;
    return parse_int<T>(var, value);
}

class Cli {
public:
    Cli(int argc, const char* const* argv);

    /// True if the flag was present (with or without a value).
    bool has(const std::string& name) const;

    /// The flag's value; `fallback` when the flag is absent. A flag given
    /// without a value (`--name`, `--name=`) throws UsageError.
    std::string get_string(const std::string& name,
                           const std::string& fallback) const;

    /// The flag's value as parse_int<T> reads it; `fallback` when the flag
    /// is absent. A flag given without a value throws UsageError.
    template <std::integral T = std::int64_t>
    T get_int(const std::string& name, std::type_identity_t<T> fallback) const {
        const auto v = value(name);
        return v ? parse_int<T>("--" + name, *v) : fallback;
    }

    /// The whole token as a finite double; anything else, or no value,
    /// throws UsageError.
    double get_double(const std::string& name, double fallback) const;

    /// `--name`, `--name=true/1/yes/on` → true; `--name=false/0/no/off` →
    /// false; any other word throws UsageError.
    bool get_bool(const std::string& name, bool fallback) const;

    /// True when every flag given is one of `known` — the flags the
    /// command reads — and none is given twice. Otherwise prints
    /// "<program>: unknown flag --<name>" for the first other flag, or
    /// "<program>: flag --<name> given twice", to stderr and returns
    /// false; the caller exits 2 (usage).
    bool check_flags(std::initializer_list<std::string_view> known) const;

    const std::vector<std::string>& positional() const { return positional_; }
    const std::string& program() const { return program_; }

private:
    /// The flag's value, or nullopt when it is absent; throws UsageError
    /// when it is present without one.
    std::optional<std::string> value(const std::string& name) const;

    std::string program_;
    std::map<std::string, std::string> flags_;  // empty string = bare flag
    std::string repeated_;  ///< the first flag given twice; empty if none
    std::vector<std::string> positional_;
};

}  // namespace pgf
