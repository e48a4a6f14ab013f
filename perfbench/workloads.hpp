/**
 * @file
 * The four workloads. Each sets itself up from the seed, measures for
 * Args::seconds, checks the program's answers and fills a Report:
 * end-to-end metrics when tracing is off, per-layer metrics when on.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** Sole argument with which the binary exits at once (see runTrain). */
inline constexpr const char *kStartupProbe = "--startup-probe";

/** `hwsw save` at CLI defaults, one unit per whole chain. */
Report runTrain(const Args &args, Clock::time_point process_start);

/** Open-loop Poisson load on an in-process server. */
Report runServe(const Args &args, Clock::time_point process_start);

/** The scripted-drift `hwsw tune` loop with a journal on disk. */
Report runTune(const Args &args, Clock::time_point process_start);

/** Four island workers against an in-process coordinator. */
Report runIslands(const Args &args, Clock::time_point process_start);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
