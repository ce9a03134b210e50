#include "pgf/util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

#include "pgf/util/check.hpp"

namespace pgf {

Cli::Cli(int argc, const char* const* argv) {
    PGF_CHECK(argc >= 1, "Cli requires at least argv[0]");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        std::string name = body.substr(0, eq);
        std::string value;
        if (eq != std::string::npos) {
            value = body.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (!flags_.emplace(name, std::move(value)).second &&
            repeated_.empty()) {
            repeated_ = std::move(name);
        }
    }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

bool Cli::check_flags(std::initializer_list<std::string_view> known) const {
    for (const auto& flag : flags_) {
        if (std::find(known.begin(), known.end(), flag.first) == known.end()) {
            std::cerr << program_ << ": unknown flag --" << flag.first << "\n";
            return false;
        }
    }
    if (!repeated_.empty()) {
        std::cerr << program_ << ": flag --" << repeated_ << " given twice\n";
        return false;
    }
    return true;
}

std::optional<std::string> Cli::value(const std::string& name) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return std::nullopt;
    if (it->second.empty()) {
        throw UsageError("--" + name + ": expected a value");
    }
    return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
    return value(name).value_or(fallback);
}

double Cli::get_double(const std::string& name, double fallback) const {
    auto v = value(name);
    if (!v) return fallback;
    double parsed = 0.0;
    const char* end = v->data() + v->size();
    const auto [stop, error] = std::from_chars(v->data(), end, parsed);
    if (error != std::errc{} || stop != end || !std::isfinite(parsed)) {
        throw UsageError("--" + name + ": expected a finite number, got '" +
                         *v + "'");
    }
    return parsed;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    const std::string& v = it->second;
    if (v.empty()) return true;  // bare --flag
    std::string s = v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
    if (s == "0" || s == "false" || s == "no" || s == "off") return false;
    throw UsageError("--" + name +
                     ": expected true/false, 1/0, yes/no or on/off, got '" +
                     v + "'");
}

}  // namespace pgf
