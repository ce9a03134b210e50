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
        if (eq != std::string::npos) {
            flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "";
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
    return true;
}

std::optional<std::string> Cli::raw(const std::string& name) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
    auto v = raw(name);
    return v && !v->empty() ? *v : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
    auto v = raw(name);
    if (!v || v->empty()) return fallback;
    double value = 0.0;
    const char* end = v->data() + v->size();
    const auto [stop, error] = std::from_chars(v->data(), end, value);
    if (error != std::errc{} || stop != end || !std::isfinite(value)) {
        throw UsageError("--" + name + ": expected a finite number, got '" +
                         *v + "'");
    }
    return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
    auto v = raw(name);
    if (!v) return fallback;
    if (v->empty()) return true;  // bare --flag
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
    if (s == "0" || s == "false" || s == "no" || s == "off") return false;
    throw UsageError("--" + name +
                     ": expected true/false, 1/0, yes/no or on/off, got '" +
                     *v + "'");
}

}  // namespace pgf
