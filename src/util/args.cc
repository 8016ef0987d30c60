#include "util/args.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace zombie
{

ArgParser::ArgParser(std::string program_description)
    : description(std::move(program_description))
{
    addFlag("help", "show this help text and exit");
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    zombie_assert(!options.count(name), "duplicate option --", name);
    options[name] = Option{def, help, false};
    order.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    zombie_assert(!options.count(name), "duplicate flag --", name);
    options[name] = Option{"false", help, true};
    order.push_back(name);
}

void
ArgParser::parse(int argc, char **argv)
{
    if (argc > 0)
        program = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            zombie_fatal("unexpected positional argument: ", arg);
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        auto it = options.find(arg);
        if (it == options.end())
            zombie_fatal("unknown option --", arg, "\n", usage());

        if (it->second.is_flag) {
            if (has_value)
                zombie_fatal("flag --", arg, " does not take a value");
            parsed[arg] = "true";
        } else {
            if (!has_value) {
                if (i + 1 >= argc)
                    zombie_fatal("option --", arg, " needs a value");
                value = argv[++i];
            }
            parsed[arg] = value;
        }
    }

    if (getFlag("help")) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

const ArgParser::Option &
ArgParser::lookup(const std::string &name) const
{
    auto it = options.find(name);
    zombie_assert(it != options.end(), "option --", name,
                  " was never registered");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    const Option &opt = lookup(name);
    auto it = parsed.find(name);
    return it != parsed.end() ? it->second : opt.def;
}

template <typename T>
T
ArgParser::getNumber(const std::string &name, T lo, T hi) const
{
    T value{};
    if (const std::string err = parseNumber(getString(name), value, lo, hi);
        !err.empty())
        zombie_fatal("--", name, ": ", err);
    return value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    return getNumber(name, std::numeric_limits<std::int64_t>::lowest(),
                     std::numeric_limits<std::int64_t>::max());
}

std::uint64_t
ArgParser::getUint(const std::string &name, std::uint64_t lo,
                   std::uint64_t hi) const
{
    return getNumber(name, lo, hi);
}

double
ArgParser::getDouble(const std::string &name, double lo, double hi) const
{
    return getNumber(name, lo, hi);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return getString(name) == "true";
}

bool
ArgParser::has(const std::string &name) const
{
    return options.count(name) != 0;
}

std::string
ArgParser::getChoice(const std::string &name,
                     std::initializer_list<const char *> choices) const
{
    const std::string value = getString(name);
    std::string list;
    for (const char *choice : choices) {
        if (value == choice)
            return value;
        list += (list.empty() ? "" : "|") + std::string(choice);
    }
    zombie_fatal("--", name, ": '", value, "' is not one of ", list);
}

void
ArgParser::rejectGiven(std::initializer_list<const char *> names,
                       const std::string &why) const
{
    for (const char *name : names) {
        if (parsed.count(name))
            zombie_fatal("--", name, " ", why);
    }
}

std::string
ArgParser::programName() const
{
    const auto slash = program.find_last_of('/');
    return slash == std::string::npos ? program
                                      : program.substr(slash + 1);
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << description << "\n\nusage: " << program << " [options]\n";
    for (const auto &name : order) {
        const Option &opt = options.at(name);
        oss << "  --" << name;
        if (!opt.is_flag)
            oss << " <value> (default: " << opt.def << ")";
        oss << "\n      " << opt.help << "\n";
    }
    return oss.str();
}

} // namespace zombie
