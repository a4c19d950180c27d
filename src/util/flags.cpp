#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/str.h"

namespace mg::util {

Flags&
Flags::define(const std::string& name, const std::string& default_value,
              const std::string& help)
{
    MG_ASSERT(!entries_.count(name));
    entries_[name] = Entry{default_value, default_value, help};
    order_.push_back(name);
    return *this;
}

bool
Flags::parse(int argc, const char* const* argv)
{
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string name;
        std::string value;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
        } else {
            name = body;
            auto it = entries_.find(name);
            require(it != entries_.end(), program_, ": unknown flag --",
                    name);
            // Boolean-style flags may omit the value; others consume the
            // next argument.
            if (it->second.defaultValue == "true" ||
                it->second.defaultValue == "false") {
                value = "true";
            } else {
                require(i + 1 < argc, program_, ": flag --", name,
                        " needs a value");
                value = argv[++i];
            }
        }
        auto it = entries_.find(name);
        require(it != entries_.end(), program_, ": unknown flag --", name);
        it->second.value = value;
    }
    return true;
}

const Flags::Entry&
Flags::entry(const std::string& name) const
{
    auto it = entries_.find(name);
    MG_ASSERT(it != entries_.end());
    return it->second;
}

const std::string&
Flags::str(const std::string& name) const
{
    return entry(name).value;
}

int64_t
Flags::integer(const std::string& name) const
{
    const std::string& v = entry(name).value;
    char* end = nullptr;
    errno = 0;
    const long long out = std::strtoll(v.c_str(), &end, 10);
    require(end && *end == '\0' && !v.empty(), program_, ": flag --", name,
            " expects an integer, got '", v, "'");
    require(errno != ERANGE, program_, ": flag --", name,
            " is out of range, got '", v, "'");
    return out;
}

uint64_t
Flags::uinteger(const std::string& name) const
{
    const int64_t out = integer(name);
    require(out >= 0, program_, ": flag --", name,
            " expects a non-negative integer, got '", entry(name).value,
            "'");
    return static_cast<uint64_t>(out);
}

double
Flags::real(const std::string& name) const
{
    const std::string& v = entry(name).value;
    char* end = nullptr;
    double out = std::strtod(v.c_str(), &end);
    require(end && *end == '\0' && !v.empty(), program_, ": flag --", name,
            " expects a number, got '", v, "'");
    return out;
}

bool
Flags::boolean(const std::string& name) const
{
    const std::string& v = entry(name).value;
    if (v == "true" || v == "1") {
        return true;
    }
    if (v == "false" || v == "0") {
        return false;
    }
    throw Error(cat(program_, ": flag --", name,
                    " expects true/false, got '", v, "'"));
}

std::string
Flags::usage() const
{
    std::string out = "usage: " + program_ + " [flags]\n";
    for (const auto& name : order_) {
        const Entry& e = entries_.at(name);
        out += "  --" + padRight(name + " (default: " + e.defaultValue + ")",
                                 40) + " " + e.help + "\n";
    }
    return out;
}

} // namespace mg::util
