/**
 * @file
 * Shared command-line flag registry for the example tools.
 *
 * Every tool used to hand-roll the same strncmp("--", ...) loop; the
 * drift showed (flags documented in one place, parsed in another,
 * audited in a third). A FlagSet is the single source of truth: each
 * flag is registered once with its value placeholder and help text,
 * parse() consumes argv against the registry, and printHelp() renders
 * the reference from the same table — a registered flag cannot be
 * missing from --help by construction, which is what the CI help
 * audit leans on.
 *
 * Conventions preserved from the hand-rolled loops: flags come before
 * positional arguments and subcommands, `--help` prints to stdout and
 * exits 0, an unknown flag / missing value / bad value prints the
 * usage to stderr and exits 2.
 */

#ifndef FCC_TOOLS_CLI_HPP
#define FCC_TOOLS_CLI_HPP

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "codec/fcc/stream.hpp"
#include "util/error.hpp"

namespace fcc::cli {

/** What parse() decided: where positionals start, or how to exit. */
struct ParseResult
{
    /** Index of the first positional argument. */
    int next = 1;
    /** True when the process should exit now (help or error). */
    bool exit = false;
    /** Exit code to use when @ref exit is set. */
    int code = 0;
};

class FlagSet
{
  public:
    /**
     * @param usageLine  the one-line synopsis, without the leading
     *                   "usage: " or the program name
     * @param intro      paragraph(s) printed between the synopsis and
     *                   the flag table ("" for none)
     */
    FlagSet(std::string usageLine, std::string intro)
        : usage_(std::move(usageLine)), intro_(std::move(intro))
    {
    }

    /** Register a flag taking a value ("--threads N"). The handler
     *  may throw fcc::util::Error to reject the value. */
    void
    add(const char *name, const char *valueName, const char *help,
        std::function<void(const char *)> handler)
    {
        flags_.push_back({name, valueName, help,
                          std::move(handler), nullptr});
    }

    /** Register a boolean flag ("--count"). */
    void
    add(const char *name, const char *help,
        std::function<void()> handler)
    {
        flags_.push_back(
            {name, "", help, nullptr, std::move(handler)});
    }

    /** Extra lines appended after the flag table (subcommands...). */
    void epilog(std::string text) { epilog_ = std::move(text); }

    /**
     * Consume leading `--flag [value]` arguments. Stops at the first
     * argument that does not start with "--" (or at "--" itself,
     * which is swallowed). `--help` renders the reference and asks
     * for exit 0; anything unknown or invalid renders it to stderr
     * and asks for exit 2.
     */
    ParseResult
    parse(int argc, char **argv)
    {
        ParseResult result;
        int arg = 1;
        while (arg < argc &&
               std::strncmp(argv[arg], "--", 2) == 0) {
            if (std::strcmp(argv[arg], "--") == 0) {
                ++arg;
                break;
            }
            if (std::strcmp(argv[arg], "--help") == 0) {
                printHelp(argv[0], stdout);
                return {arg, true, 0};
            }
            const Flag *flag = find(argv[arg]);
            if (flag == nullptr) {
                std::fprintf(stderr, "error: unknown flag %s\n",
                             argv[arg]);
                printHelp(argv[0], stderr);
                return {arg, true, 2};
            }
            try {
                if (flag->valued()) {
                    if (arg + 1 >= argc)
                        throw util::Error(
                            std::string(flag->name) + " expects " +
                            flag->valueName);
                    flag->onValue(argv[arg + 1]);
                    arg += 2;
                } else {
                    flag->onSet();
                    ++arg;
                }
            } catch (const util::Error &error) {
                std::fprintf(stderr, "error: %s\n", error.what());
                return {arg, true, 2};
            }
        }
        result.next = arg;
        return result;
    }

    /** Render "usage:" + intro + the flag table + epilog. */
    void
    printHelp(const char *argv0, std::FILE *out) const
    {
        std::fprintf(out, "usage: %s %s\n", argv0, usage_.c_str());
        if (!intro_.empty())
            std::fprintf(out, "\n%s\n", intro_.c_str());
        std::fprintf(out, "\noptions:\n");
        for (const Flag &flag : flags_)
            printFlag(out, flag);
        std::fprintf(out, "  %-18s %s\n", "--help",
                     "show this text");
        if (!epilog_.empty())
            std::fprintf(out, "\n%s\n", epilog_.c_str());
    }

  private:
    struct Flag
    {
        const char *name;
        const char *valueName;  ///< "" = boolean
        const char *help;
        std::function<void(const char *)> onValue;
        std::function<void()> onSet;

        bool valued() const { return valueName[0] != '\0'; }
    };

    const Flag *
    find(const char *name) const
    {
        for (const Flag &flag : flags_)
            if (std::strcmp(flag.name, name) == 0)
                return &flag;
        return nullptr;
    }

    static void
    printFlag(std::FILE *out, const Flag &flag)
    {
        std::string head(flag.name);
        if (flag.valued()) {
            head += ' ';
            head += flag.valueName;
        }
        // Help text may span lines; indent continuations to the
        // description column.
        const char *text = flag.help;
        bool first = true;
        while (*text != '\0') {
            const char *nl = std::strchr(text, '\n');
            size_t len = nl ? static_cast<size_t>(nl - text)
                            : std::strlen(text);
            std::fprintf(out, "  %-18s %.*s\n",
                         first ? head.c_str() : "",
                         static_cast<int>(len), text);
            text += len + (nl ? 1 : 0);
            first = false;
        }
    }

    std::string usage_;
    std::string intro_;
    std::string epilog_;
    std::vector<Flag> flags_;
};

/** Parse a base-10 unsigned integer flag value.
 *  @throws fcc::util::Error naming @p flag on anything else. */
inline uint64_t
parseUnsigned(const char *flag, const char *text)
{
    if (text[0] == '\0')
        throw util::Error(std::string(flag) + ": empty value");
    uint64_t value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            throw util::Error(std::string(flag) + ": '" + text +
                              "' is not a non-negative integer");
        uint64_t digit = static_cast<uint64_t>(*p - '0');
        if (value > (UINT64_MAX - digit) / 10)
            throw util::Error(std::string(flag) + ": '" + text +
                              "' overflows");
        value = value * 10 + digit;
    }
    return value;
}

/**
 * One shared rendering of a compression run's StreamStats — fcctool
 * (one-shot) and fccd (multi-epoch) print the same shape, so the
 * session-lifecycle counters read identically across the tools.
 */
inline void
printCompressStats(const codec::fcc::StreamStats &stats)
{
    std::printf("%llu packets, %llu flows: %llu -> %llu bytes "
                "(%.2f%%)\n",
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.flows),
                static_cast<unsigned long long>(stats.inputBytes),
                static_cast<unsigned long long>(stats.outputBytes),
                100.0 * stats.ratio());
    std::printf("sealed: %llu archive%s, %llu chunk%s, %llu "
                "epoch%s\n",
                static_cast<unsigned long long>(
                    stats.archivesSealed),
                stats.archivesSealed == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.chunksSealed),
                stats.chunksSealed == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.epochs),
                stats.epochs == 1 ? "" : "s");
}

/** The decompression-side counterpart of printCompressStats(). */
inline void
printDecompressStats(const codec::fcc::StreamStats &stats)
{
    std::printf("%llu flows -> %llu packets, %llu bytes\n",
                static_cast<unsigned long long>(stats.flows),
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.outputBytes));
}

/** Parse a finite decimal number flag value (range checks are the
 *  config's: FccConfig::validate()).
 *  @throws fcc::util::Error naming @p flag on anything else. */
inline double
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value))
        throw util::Error(std::string(flag) + ": '" + text +
                          "' is not a finite number");
    return value;
}

/** parseUnsigned() with an inclusive [lo, hi] range check. */
inline uint64_t
parseUnsigned(const char *flag, const char *text, uint64_t lo,
              uint64_t hi)
{
    uint64_t value = parseUnsigned(flag, text);
    if (value < lo || value > hi)
        throw util::Error(std::string(flag) + ": " + text +
                          " is outside [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]");
    return value;
}

} // namespace fcc::cli

#endif // FCC_TOOLS_CLI_HPP
