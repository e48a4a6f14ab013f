/**
 * @file
 * The one place the benchmark reads the program's own counters:
 * GaResult::metrics, ControllerStats and UpdaterStats,
 * IslandCoordinatorStats, EngineCounters and Server::latency(). Each
 * reader maps a struct onto the benchmark's metric names, so a change
 * to how the program exposes its counters edits this file only.
 */
#ifndef PERFBENCH_COUNTERS_HPP
#define PERFBENCH_COUNTERS_HPP

#include <map>
#include <string>

#include "core/genetic.hpp"
#include "serve/engine.hpp"
#include "serve/island.hpp"
#include "serve/latency.hpp"
#include "serve/updater.hpp"
#include "tune/controller.hpp"

namespace perfbench {

/** Counter readings keyed by benchmark metric name. */
using Readings = std::map<std::string, double>;

/** core.search.{evaluations,hit_ratio,model_fits,eval_s}. */
Readings readSearch(const hwsw::core::SearchMetrics &m);

/**
 * tune.{actuations,rollbacks}, tune.first_drift_step (-1 when none)
 * and serve.updater.updates.
 */
Readings readController(const hwsw::tune::ControllerStats &st,
                        const hwsw::serve::UpdaterStats &up);

/** serve.island.{wait_answers,heartbeats,migrate_posts}. */
Readings readIslands(const hwsw::serve::IslandCoordinatorStats &st);

/** serve.engine.shed. */
Readings readEngine(const hwsw::serve::EngineCounters &c);

/**
 * serve.server.{predict,batch}_{p50,p99}_us and serve.errors (error
 * answers over both verbs).
 */
Readings readServerLatency(const hwsw::serve::LatencyRecorder &lat);

} // namespace perfbench

#endif // PERFBENCH_COUNTERS_HPP
