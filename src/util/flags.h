/**
 * @file
 * Minimal command-line flag parser for the examples and benchmark
 * harnesses.  Flags are registered with a name, default value, and help
 * text, then parse() consumes "--name value" / "--name=value" pairs and
 * leaves positional arguments behind.  Unknown flags are a user error.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/common.h"

namespace mg::util {

/** Registry of typed command-line flags plus positional arguments. */
class Flags
{
  public:
    /** @param program Name used in the usage banner. */
    explicit Flags(std::string program) : program_(std::move(program)) {}

    /** Register a flag with a default; returns *this for chaining. */
    Flags& define(const std::string& name, const std::string& default_value,
                  const std::string& help);

    /**
     * Parse argv (excluding argv[0]).  Throws mg::util::Error on unknown
     * flags or missing values.  Recognizes --help by printing usage and
     * returning false.
     */
    bool parse(int argc, const char* const* argv);

    /**
     * Typed accessors for a registered flag's value.  Each throws
     * mg::util::Error naming the flag when the value does not parse;
     * integer() also rejects values outside the int64_t range.
     */
    const std::string& str(const std::string& name) const;
    int64_t integer(const std::string& name) const;
    /** integer() that also rejects negative values: the accessor for
     *  counts, sizes and caps, which callers store unsigned. */
    uint64_t uinteger(const std::string& name) const;
    double real(const std::string& name) const;
    bool boolean(const std::string& name) const;

    /** Positional arguments left after flag parsing. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** Usage text listing all registered flags. */
    std::string usage() const;

  private:
    struct Entry
    {
        std::string value;
        std::string defaultValue;
        std::string help;
    };

    const Entry& entry(const std::string& name) const;

    std::string program_;
    std::map<std::string, Entry> entries_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
};

} // namespace mg::util
