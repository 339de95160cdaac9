#include "cli.hh"

#include <sys/resource.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace cascade {
namespace cli {

bool
parseDoubleStrict(const char *s, double *out)
{
    // strtod skips leading whitespace; "whole token" means no such
    // slack — ' 3' is an error, not 3.
    if (std::isspace(static_cast<unsigned char>(*s)))
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
parseUint64Strict(const char *s, uint64_t *out)
{
    // strtoull silently wraps negatives and skips leading
    // whitespace; reject both up front.
    if (*s == '-' || *s == '+' ||
        std::isspace(static_cast<unsigned char>(*s))) {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

FlagSet::FlagSet(std::string program, std::string description)
    : program_(std::move(program)),
      description_(std::move(description))
{
}

void
FlagSet::addValueFlag(const char *name, const char *metavar,
                      const char *help,
                      std::function<bool(const char *)> setter)
{
    Flag f;
    f.name = name;
    f.takesValue = true;
    f.metavar = metavar;
    f.help = help;
    f.setValue = std::move(setter);
    flags_.push_back(std::move(f));
}

void
FlagSet::flagString(const char *name, std::string *target,
                    const char *metavar, const char *help)
{
    addValueFlag(name, metavar, help, [target](const char *v) {
        *target = v;
        return true;
    });
}

void
FlagSet::flagDouble(const char *name, double *target,
                    const char *metavar, const char *help)
{
    addValueFlag(name, metavar, help, [target](const char *v) {
        return parseDoubleStrict(v, target);
    });
}

void
FlagSet::flagBool(const char *name, bool *target, const char *help)
{
    flagAction(name, [target] { *target = true; }, help);
}

void
FlagSet::flagAction(const char *name, std::function<void()> action,
                    const char *help)
{
    Flag f;
    f.name = name;
    f.takesValue = false;
    f.help = help;
    f.setPresent = std::move(action);
    flags_.push_back(std::move(f));
}

const FlagSet::Flag *
FlagSet::find(const std::string &name) const
{
    for (const Flag &f : flags_)
        if (f.name == name)
            return &f;
    return nullptr;
}

std::string
FlagSet::helpText() const
{
    std::string out = "usage: " + program_ + " [flags]\n";
    if (!description_.empty())
        out += description_ + "\n";
    out += "\nflags:\n";
    // Column-align the help text on the longest flag spelling.
    size_t width = 0;
    std::vector<std::string> spellings;
    spellings.reserve(flags_.size());
    for (const Flag &f : flags_) {
        std::string s = f.name;
        if (f.takesValue)
            s += " " + f.metavar;
        width = s.size() > width ? s.size() : width;
        spellings.push_back(std::move(s));
    }
    for (size_t i = 0; i < flags_.size(); ++i) {
        out += "  " + spellings[i];
        out.append(width - spellings[i].size() + 2, ' ');
        out += flags_[i].help + "\n";
    }
    out += "  --help";
    out.append(width > 4 ? width - 4 : 2, ' ');
    out += "show this message\n";
    return out;
}

ParseResult
FlagSet::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(helpText().c_str(), stdout);
            return ParseResult::Help;
        }
        // Split `--flag=value` into name + inline value.
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        const Flag *f = find(arg);
        if (!f) {
            std::fprintf(stderr, "%s: unknown flag '%s' (--help)\n",
                         program_.c_str(), argv[i]);
            return ParseResult::Error;
        }
        if (!f->takesValue) {
            if (has_inline) {
                std::fprintf(stderr, "%s: %s takes no value\n",
                             program_.c_str(), f->name.c_str());
                return ParseResult::Error;
            }
            f->setPresent();
            continue;
        }
        const char *value = nullptr;
        if (has_inline) {
            value = inline_value.c_str();
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            std::fprintf(stderr, "%s: %s needs a value (%s)\n",
                         program_.c_str(), f->name.c_str(),
                         f->metavar.c_str());
            return ParseResult::Error;
        }
        if (!f->setValue(value)) {
            std::fprintf(stderr, "%s: %s: invalid value '%s'\n",
                         program_.c_str(), f->name.c_str(), value);
            return ParseResult::Error;
        }
    }
    return ParseResult::Ok;
}

DatasetSpec
specByName(const std::string &name, double scale)
{
    if (name == "wiki")
        return wikiSpec(scale);
    if (name == "reddit")
        return redditSpec(scale);
    if (name == "mooc")
        return moocSpec(scale);
    if (name == "wikitalk")
        return wikiTalkSpec(scale);
    if (name == "sxfull")
        return sxFullSpec(scale);
    if (name == "gdelt")
        return gdeltSpec(scale);
    if (name == "mag")
        return magSpec(scale);
    CASCADE_FATAL("unknown dataset (see --help)");
}

ModelConfig
modelByCliName(const std::string &name, size_t dim)
{
    if (name == "jodie")
        return jodieConfig(dim);
    if (name == "tgn")
        return tgnConfig(dim);
    if (name == "apan")
        return apanConfig(dim);
    if (name == "dysat")
        return dysatConfig(dim);
    if (name == "tgat")
        return tgatConfig(dim);
    CASCADE_FATAL("unknown model (see --help)");
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace cli
} // namespace cascade
