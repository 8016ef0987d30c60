/**
 * @file
 * Minimal command-line argument parser for benches and examples.
 *
 * Supports --flag, --key value and --key=value forms plus automatic
 * --help generation. Unknown options are fatal (user error) so typos
 * do not silently run the wrong experiment, and numeric values are
 * parsed strictly: "1e6", "2000x" or "-1" for an unsigned option is
 * an error, never a silently different number.
 */

#ifndef ZOMBIE_UTIL_ARGS_HH
#define ZOMBIE_UTIL_ARGS_HH

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace zombie
{

/**
 * Parse all of @p text as one number of type T in [lo, hi]: no
 * leading or trailing characters, no exponent for integer types, no
 * NaN or infinity. Returns "" and sets @p out on success; otherwise
 * returns a "bad number" message naming the text and the range.
 */
template <typename T>
std::string
parseNumber(std::string_view text, T &out,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc{} && ptr == end && value >= lo && value <= hi) {
        out = value;
        return {};
    }
    std::ostringstream oss;
    oss << "bad number '" << text << "' (want "
        << (!std::is_integral_v<T> ? "a number"
            : std::is_signed_v<T>  ? "an integer"
                                   : "an unsigned integer")
        << " in [" << lo << ", " << hi << "])";
    return oss.str();
}

/** Declarative CLI option set with typed accessors. */
class ArgParser
{
  public:
    explicit ArgParser(std::string program_description);

    /** Register an option with a default value (all values as text). */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Exits with usage text on --help; fatal on unknown
     * options or missing values.
     */
    void parse(int argc, char **argv);

    /** Whether @p name was registered. */
    bool has(const std::string &name) const;

    std::string getString(const std::string &name) const;
    /** Numbers parsed strictly; fatal outside [lo, hi] too. */
    std::int64_t getInt(const std::string &name) const;
    std::uint64_t
    getUint(const std::string &name, std::uint64_t lo = 0,
            std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
        const;
    double getDouble(const std::string &name,
                     double lo = std::numeric_limits<double>::lowest(),
                     double hi = std::numeric_limits<double>::max()) const;
    bool getFlag(const std::string &name) const;

    /** The value of @p name; fatal unless it is one of @p choices. */
    std::string getChoice(const std::string &name,
                          std::initializer_list<const char *> choices)
        const;

    /**
     * Fatal when any of @p names was given on the command line,
     * with "--<name> <why>" as the message.
     */
    void rejectGiven(std::initializer_list<const char *> names,
                     const std::string &why) const;

    std::string usage() const;

    /** Basename of argv[0] (available after parse()). */
    std::string programName() const;

  private:
    struct Option
    {
        std::string def;
        std::string help;
        bool is_flag;
    };

    const Option &lookup(const std::string &name) const;

    /** getString() parsed strictly as a T in [lo, hi], or fatal. */
    template <typename T>
    T getNumber(const std::string &name, T lo, T hi) const;

    std::string description;
    std::string program = "prog";
    std::vector<std::string> order;
    std::map<std::string, Option> options;
    std::map<std::string, std::string> parsed;
};

} // namespace zombie

#endif // ZOMBIE_UTIL_ARGS_HH
