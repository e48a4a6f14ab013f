/**
 * @file
 * In-memory span recorder for the traced run. A span is a named
 * interval with a parent and the id of the workload unit it belongs
 * to; spans are appended to per-thread buffers and only read after
 * every recording thread has been joined. With tracing disabled a
 * Scope costs one relaxed load.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Span
{
    const char *name = "";
    double start = 0.0; ///< seconds on the trace clock
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no parent
    std::uint64_t unit = 0;
};

void setEnabled(bool on);
bool enabled();

/** Seconds since the trace epoch (process start). */
double now();
double toTraceTime(Clock::time_point t);

/** A fresh span id (also usable before the span is recorded). */
std::uint64_t newId();

/** Append a finished span to this thread's buffer (when enabled). */
void record(const Span &span);

/**
 * RAII span: opens on construction, records on destruction. The
 * parent defaults to the innermost open Scope on this thread.
 */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t unit = 0,
                   std::uint64_t parent = ~std::uint64_t{0});
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Span span_;
    std::uint64_t saved_ = 0;
    bool on_ = false;
};

/** Every span recorded so far, across threads. */
std::vector<Span> collect();

/** Write spans as JSON lines (one object per span). */
bool writeJsonLines(const std::vector<Span> &spans,
                    const std::string &path);

/** Per-unit sum of the durations of spans named @p name. */
std::vector<double> perUnitTotals(const std::vector<Span> &spans,
                                  const std::string &name);

/** Durations of every span named @p name. */
std::vector<double> durations(const std::vector<Span> &spans,
                              const std::string &name);

/**
 * Share of the total duration of the @p root spans that no child
 * span covers.
 */
double unaccountedShare(const std::vector<Span> &spans,
                        const std::string &root);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HPP
