/**
 * @file
 * Shared command-line flag parsing for the cascade tools.
 *
 * Every tool used to hand-roll the same loop: accept `--flag value`
 * and `--flag=value`, parse numbers strictly (the whole token must be
 * a number — `--epochs 3x` is an error, not 3), and keep a usage()
 * string in sync with the parser by hand. FlagSet centralizes that
 * contract once:
 *
 *   cli::FlagSet flags("cascade_serve", "online query server");
 *   flags.flagString("--snapshot", &path, "FILE", "trained model");
 *   flags.flagInt("--port", &port, "N", "listen port");
 *   flags.flagBool("--verbose", &verbose, "chatty logging");
 *   switch (flags.parse(argc, argv)) {
 *     case cli::ParseResult::Help: return 0;   // --help printed
 *     case cli::ParseResult::Error: return 2;  // message printed
 *     case cli::ParseResult::Ok: break;
 *   }
 *
 * `--help` / `-h` is registered automatically and prints one line per
 * flag from the registered metavar + help text, so the help output
 * can never drift from what the parser accepts. Unknown flags and
 * malformed values print an error naming the flag to stderr.
 *
 * The `--dataset` and `--model` name tables that cascade_train and
 * cascade_serve both accept live here too, once, with the peak-RSS
 * reading both print in their summary lines.
 */

#ifndef CASCADE_TOOLS_CLI_HH
#define CASCADE_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/dataset.hh"
#include "tgnn/config.hh"

namespace cascade {
namespace cli {

enum class ParseResult
{
    Ok,   ///< all flags consumed; proceed
    Help, ///< --help was requested and printed; exit 0
    Error ///< bad flag or value; message printed; exit 2
};

/** Strict full-token parsers (exposed for ad-hoc use). */
bool parseDoubleStrict(const char *s, double *out);
bool parseUint64Strict(const char *s, uint64_t *out);

class FlagSet
{
  public:
    FlagSet(std::string program, std::string description);

    /** String-valued flag (`--flag VALUE`). */
    void flagString(const char *name, std::string *target,
                    const char *metavar, const char *help);

    /** Double-valued flag with strict full-token parsing. */
    void flagDouble(const char *name, double *target,
                    const char *metavar, const char *help);

    /**
     * Unsigned-integer flag for any integral target (size_t,
     * uint64_t, uint16_t, ...). Parses strictly as u64 and
     * range-checks the narrowing cast.
     */
    template <typename T>
    void
    flagInt(const char *name, T *target, const char *metavar,
            const char *help)
    {
        static_assert(std::is_integral<T>::value &&
                          !std::is_same<T, bool>::value,
                      "flagInt needs a non-bool integral target");
        addValueFlag(name, metavar, help, [target](const char *v) {
            uint64_t u = 0;
            if (!parseUint64Strict(v, &u))
                return false;
            if (u > static_cast<uint64_t>(
                        (std::numeric_limits<T>::max)()))
                return false;
            *target = static_cast<T>(u);
            return true;
        });
    }

    /** Presence flag: `--flag` sets *target = true; takes no value. */
    void flagBool(const char *name, bool *target, const char *help);

    /**
     * Presence flag running an arbitrary action (e.g. `--resume-auto`
     * setting two fields). Takes no value.
     */
    void flagAction(const char *name, std::function<void()> action,
                    const char *help);

    /**
     * Consume argv. Accepts `--flag value` and `--flag=value` for
     * value flags; boolean flags reject an inline `=value`. On
     * Error a message naming the flag has been printed to stderr;
     * on Help the full help text has been printed to stdout.
     */
    ParseResult parse(int argc, char **argv) const;

    /** The generated help text (what `--help` prints). */
    std::string helpText() const;

  private:
    struct Flag
    {
        std::string name;
        bool takesValue = false;
        std::string metavar;
        std::string help;
        std::function<bool(const char *)> setValue; ///< value flags
        std::function<void()> setPresent;           ///< bool flags
    };

    void addValueFlag(const char *name, const char *metavar,
                      const char *help,
                      std::function<bool(const char *)> setter);
    const Flag *find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::vector<Flag> flags_;
};

/**
 * The dataset a `--dataset` name selects (wiki, reddit, mooc,
 * wikitalk, sxfull, gdelt, mag) at `scale`; fatal for any other name.
 */
DatasetSpec specByName(const std::string &name, double scale);

/**
 * The Table 1 model a `--model` name selects (jodie, tgn, apan,
 * dysat, tgat) at width `dim`; fatal for any other name.
 */
ModelConfig modelByCliName(const std::string &name, size_t dim);

/** Peak resident set of this process so far, in MiB (0 if unknown). */
double peakRssMb();

} // namespace cli
} // namespace cascade

#endif // CASCADE_TOOLS_CLI_HH
