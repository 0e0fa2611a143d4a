/**
 * @file
 * Shared command-line grid parsing for the sweep-driver family
 * (imo-sweep, imo-farm). One implementation of the axis flags, the
 * numeric-list parser, job-count semantics, and up-front point
 * validation keeps the drivers' grids — and therefore their reports —
 * interchangeable.
 */

#ifndef IMO_SWEEP_GRIDCLI_HH
#define IMO_SWEEP_GRIDCLI_HH

#include <functional>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace imo::sweep
{

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitCsv(const std::string &s);

/** Parse a comma-separated list of non-negative integers.
 *  Throws SimException(BadConfig) naming @p what on a bad item. */
std::vector<std::uint64_t> parseU64List(const std::string &s,
                                        const char *what);

/** Parse one decimal integer in [0, 2^64-1] (e.g. a millisecond or
 *  seed flag). Throws SimException(BadConfig) naming @p what on
 *  malformed input — trailing garbage, a '-', overflow, an octal or hex
 *  prefix — so a typo never silently becomes another number. */
std::uint64_t parseU64(const std::string &s, const char *what);

/** Parse one finite, non-negative decimal number (e.g. a CI target).
 *  Throws SimException(BadConfig) naming @p what on trailing garbage,
 *  a '-', NaN, infinity, or a value out of double's range. */
double parseFiniteDouble(const std::string &s, const char *what);

/** Parse a workload scale factor: parseFiniteDouble() and > 0. */
double parseScale(const std::string &s);

/** Parse an informing-mode name (N, S, U, CC).
 *  Throws SimException(BadConfig) for anything else. */
core::InformingMode parseModeName(const std::string &m);

/** The usage-text block describing the shared axis flags. */
const char *gridAxesHelp();

/**
 * Try to consume one shared grid argument (an axis flag, --scale, or
 * --seed). @p value fetches the flag's value (and may throw BadConfig
 * when it is missing). @return false if @p arg is not a grid flag.
 */
bool applyGridArg(SweepGrid *grid, const std::string &arg,
                  const std::function<std::string()> &value);

/**
 * Parse a parallelism value for @p flag (e.g. "--jobs", "--workers"):
 * 0 means "one per hardware thread", a positive value is taken as-is,
 * and a negative or malformed value is a BadConfig error.
 */
unsigned parseParallelism(const std::string &text, const char *flag);

/**
 * Validate every point's machine config, workload name, and sampling
 * spec up front, so a typo fails fast (BadConfig) instead of surfacing
 * mid-sweep from a worker.
 */
void validatePoints(const std::vector<SweepPoint> &points);

} // namespace imo::sweep

#endif // IMO_SWEEP_GRIDCLI_HH
