/**
 * @file
 * The command-line layer every tool in tools/ shares: flag reading
 * with strict numbers, the stop signal, structured error printing, the
 * exit-code policy, and the trace / stats-JSON / manifest writers. The
 * exit codes are documented once, in README.md ("Command-line exit
 * codes").
 */

#ifndef IMO_TOOLS_CLI_HH
#define IMO_TOOLS_CLI_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/manifest.hh"
#include "obs/trace.hh"

namespace imo::cli
{

constexpr int kExitUsage = 2;       //!< bad command line
constexpr int kExitBadInput = 3;    //!< BadConfig / BadProgram
constexpr int kExitFailure = 4;     //!< any other failure
constexpr int kExitInterrupted = 5; //!< stopped by SIGINT/SIGTERM

/** The exit code for an error of class @p code (0 for None). */
int exitCodeFor(ErrCode code);

/** A malformed command line: run() prints the message, then the
 *  tool's usage text, and exits kExitUsage. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The flags of one command line, read front to back. Numbers are
 * strict (sweep::parseU64 / parseFiniteDouble): a malformed value is a
 * BadConfig error naming the flag, never a silent 0.
 */
class Args
{
  public:
    Args(int argc, char **argv) : _args(argv + 1, argv + argc) {}

    /** Advance to the next flag. @return false when none is left. */
    bool next();

    const std::string &flag() const { return _flag; }
    bool is(const char *name) const { return _flag == name; }

    /** The current flag's value; a missing one is a UsageError. */
    std::string value();
    /** value() as an integer in [0, @p max]. */
    std::uint64_t u64(std::uint64_t max = UINT64_MAX);
    /** value() as a finite, non-negative number. */
    double real();
    /** value(), which must be one of @p choices (else a UsageError). */
    std::string oneOf(std::initializer_list<const char *> choices);

    /** Throw the UsageError for an unrecognized flag. */
    [[noreturn]] void unknown() const;

    /** argv[1..] verbatim, for the manifest. */
    const std::vector<std::string> &all() const { return _args; }

  private:
    std::vector<std::string> _args;
    std::size_t _next = 0;
    std::string _flag;
};

/**
 * Run a tool's main body under the exit-code policy. A UsageError
 * prints its message and @p usage's text (exit 2). A SimException, or
 * any other std::exception (as Internal), prints "<tool>: error [Code]
 * message" with its context lines and exits exitCodeFor(code);
 * @p onError sees the error first.
 */
int run(const char *tool, void (*usage)(), const std::function<int()> &body,
        const std::function<void(const SimError &)> &onError = {});

/** Print "<tool>: error [Code] message" plus context lines to stderr. */
void printError(const char *tool, const SimError &err);

/**
 * Route SIGINT/SIGTERM to the returned stop flag: the run notices,
 * flushes what it has, and ends with an Interrupted error. A second
 * signal falls back to the default (kill) disposition.
 */
const volatile std::sig_atomic_t *installStopHandlers();

/** Steady-clock milliseconds, for manifest timings. */
std::uint64_t steadyMs();

/** Write @p trace to @p path ("" writes nothing) as "chrome" or
 *  "jsonl", warning if the sink dropped events. Throws BadConfig if
 *  @p path is unwritable. */
void writeTrace(const obs::TraceSink &trace, const std::string &path,
                const std::string &format);

/** Write a stats-JSON dump to @p path ('-' for stdout; "" writes
 *  nothing). Throws BadConfig if @p path is unwritable. */
void writeStatsJson(const std::string &path, const std::string &json);

/** A manifest with its header filled in: tool, a fresh run id, the
 *  args, the status and error taken from @p err, the elapsed time. */
manifest::Manifest manifestHeader(const char *tool, const Args &args,
                                  const SimError &err,
                                  std::uint64_t elapsedMs);

/** Write @p m to @p path ("" writes nothing). Telemetry only: a
 *  failure is a warning and never changes the run's exit code. */
void writeManifest(const std::string &path, const manifest::Manifest &m);

} // namespace imo::cli

#endif // IMO_TOOLS_CLI_HH
