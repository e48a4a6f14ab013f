#include "counters.hpp"

namespace perfbench {

using namespace hwsw;

Readings
readSearch(const core::SearchMetrics &m)
{
    return {
        {"core.search.evaluations", static_cast<double>(m.evaluations)},
        {"core.search.hit_ratio", m.hitRate()},
        {"core.search.model_fits", static_cast<double>(m.modelFits)},
        {"core.search.eval_s", m.evalSeconds},
    };
}

Readings
readController(const tune::ControllerStats &st,
               const serve::UpdaterStats &up)
{
    constexpr auto kNone = tune::ControllerStats::kNone;
    return {
        {"tune.actuations", static_cast<double>(st.actuations)},
        {"tune.rollbacks", static_cast<double>(st.rollbacks)},
        {"tune.first_drift_step",
         st.firstDriftStep == kNone
             ? -1.0
             : static_cast<double>(st.firstDriftStep)},
        {"serve.updater.updates", static_cast<double>(up.updates)},
    };
}

Readings
readIslands(const serve::IslandCoordinatorStats &st)
{
    return {
        {"serve.island.wait_answers", static_cast<double>(st.waitAnswers)},
        {"serve.island.heartbeats", static_cast<double>(st.heartbeats)},
        {"serve.island.migrate_posts",
         static_cast<double>(st.migratePosts)},
    };
}

Readings
readEngine(const serve::EngineCounters &c)
{
    return {
        {"serve.engine.shed", static_cast<double>(c.shed)},
    };
}

Readings
readServerLatency(const serve::LatencyRecorder &lat)
{
    const serve::VerbSummary p = lat.summary(serve::Verb::Predict);
    const serve::VerbSummary b = lat.summary(serve::Verb::Batch);
    return {
        {"serve.server.predict_p50_us", p.p50 * 1e6},
        {"serve.server.predict_p99_us", p.p99 * 1e6},
        {"serve.server.batch_p50_us", b.p50 * 1e6},
        {"serve.server.batch_p99_us", b.p99 * 1e6},
        {"serve.errors", static_cast<double>(p.errors + b.errors)},
    };
}

} // namespace perfbench
