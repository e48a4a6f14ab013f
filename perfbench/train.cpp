/**
 * @file
 * `train`: the path a modeler runs, `hwsw save` at its CLI defaults.
 * One unit is the whole chain from the app suite to the saved model
 * text. `hwsw save` caches nothing between runs, so set-up is only
 * process start-up.
 */
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <spawn.h>
#include <unistd.h>
#include <sys/wait.h>

#include "core/serialize.hpp"
#include "counters.hpp"
#include "profiler/profiler.hpp"
#include "stats/qr.hpp"
#include "trace.hpp"
#include "uarch/signature.hpp"
#include "workload/apps.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

/**
 * Time the three layers SpaceSampler's constructor hides by calling
 * them on the same inputs, outside the unit's root span.
 */
void
probeDatasetLayers(std::uint64_t unit)
{
    const core::SamplerOptions opts = cliSamplerOptions();
    for (const wl::AppSpec &app : wl::makeSuite()) {
        std::vector<wl::Shard> shards;
        {
            trace::Scope s("workload.shards", unit, 0);
            shards = wl::makeShards(app, opts.shardLength,
                                    opts.shardsPerApp);
        }
        {
            trace::Scope s("profiler.profile", unit, 0);
            const auto profiles = prof::profileShards(shards, app.name);
            (void)profiles;
        }
        {
            trace::Scope s("uarch.signatures", unit, 0);
            const auto sigs = uarch::computeSignatures(shards);
            (void)sigs;
        }
    }
}

/** Median single-thread evaluate() over the final population, ms. */
double
probeEvaluateMs(const TrainOutcome &out, const TrainInputs &in,
                std::uint64_t unit)
{
    core::GaOptions ga;
    ga.populationSize = in.population;
    ga.generations = in.generations;
    ga.numThreads = 1;
    ga.seed = in.gaSeed;
    const core::GeneticSearch one(out.train, ga);
    std::vector<double> ms;
    for (const core::ScoredSpec &s : out.search.population) {
        trace::Scope span("core.search.evaluate", unit, 0);
        const auto t0 = Clock::now();
        const auto score = one.evaluate(s.spec);
        ms.push_back(1e3 * secondsSince(t0));
        (void)score;
    }
    return median(ms);
}

/** Median workspace lstsq on the champion's training design, us. */
double
probeLstsqUs(const TrainOutcome &out)
{
    const stats::Matrix X = out.model.builder().build(out.train);
    std::vector<double> z(out.train.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = std::log(out.train[i].perf);
    stats::LstsqWorkspace ws;
    std::vector<double> us;
    for (int rep = 0; rep < 41; ++rep) {
        const auto t0 = Clock::now();
        const auto fit = stats::lstsq(X, z, ws);
        us.push_back(1e6 * secondsSince(t0));
        (void)fit;
    }
    return median(us);
}

/** Wall time to start this binary and have it exit in main(). */
double
startupSeconds()
{
    char *argv[] = {const_cast<char *>("perfbench"),
                    const_cast<char *>(kStartupProbe), nullptr};
    const auto t0 = Clock::now();
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv,
                      environ) != 0)
        throw std::runtime_error("cannot start the start-up probe");
    int status = 0;
    ::waitpid(pid, &status, 0);
    return secondsSince(t0);
}

} // namespace

Report
runTrain(const Args &args, Clock::time_point process_start)
{
    Report rep;
    const TrainInputs in = TrainInputs::fromSeed(args.seed);
    // `hwsw save` has nothing to set up but the process itself, so
    // set-up is start-up: this process's, and that of a few more
    // starts of the same binary that exit in main().
    std::vector<double> setups = {secondsSince(process_start)};
    for (int k = 0; k < 4; ++k)
        setups.push_back(startupSeconds());

    std::optional<core::GaResult> first;
    double err_pct = 0.0, peak_rss_mb = 0.0;
    std::vector<double> plain_s, traced_s, steal;
    std::vector<double> eval_s, loop_s, evaluate_ms, lstsq_us;
    Readings counts;

    const auto start = Clock::now();
    for (std::uint64_t unit = 0;
         unit < 2 || secondsSince(start) < args.seconds; ++unit) {
        // Traced runs alternate traced and plain units, so the
        // difference of their medians is the tracing overhead.
        const bool traced = args.trace && unit % 2 == 0;
        trace::setEnabled(traced);
        const Stamp t0 = Stamp::now();
        TrainOutcome out = trainChain(in, unit);
        const Interval iv = Interval::between(t0, Stamp::now());
        if (unit == 0)
            peak_rss_mb = peakRssMb();
        (traced ? traced_s : plain_s).push_back(iv.unstolen());
        steal.push_back(iv.stealShare);

        ++rep.attempted;
        const core::HwSwModel reloaded =
            core::loadModelFromString(out.modelText);
        bool ok = samePredictions(out.model, reloaded, out.validation);
        if (!ok)
            rep.gateFailed("reloaded champion predicts differently");
        if (!first) {
            first = out.search;
            const core::Dataset held_out =
                out.sampler->sample(in.heldOutPairs, in.heldOutSeed);
            err_pct = 100.0 *
                out.model.validate(held_out).medianAbsPctError;
            counts = readSearch(out.search.metrics);
        } else if (!sameChampion(*first, out.search)) {
            rep.gateFailed("unit " + std::to_string(unit) +
                           " found a different champion");
            ok = false;
        }
        if (!ok)
            ++rep.failed;

        if (traced) {
            const Readings r = readSearch(out.search.metrics);
            eval_s.push_back(r.at("core.search.eval_s"));
            probeDatasetLayers(unit);
            evaluate_ms.push_back(probeEvaluateMs(out, in, unit));
            lstsq_us.push_back(probeLstsqUs(out));
        }
        std::printf("unit %llu: %.3f s%s, %.3f s less steal, cpu %.3f s, "
                    "champion %zu columns, validation median %.2f%%\n",
                    static_cast<unsigned long long>(unit), iv.wall,
                    traced ? " (traced)" : "", iv.unstolen(), iv.cpu,
                    out.model.numColumns(),
                    out.validationErrPct);
        std::fflush(stdout);
    }
    trace::setEnabled(false);

    if (!args.trace) {
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("run_s", median(plain_s), "s", plain_s.size());
        rep.add("err_pct", err_pct, "%");
        rep.add("peak_rss_mb", peak_rss_mb, "MB");
        return rep;
    }

    const auto spans = trace::collect();
    trace::writeJsonLines(spans, args.scratch + "/trace-train.jsonl");
    rep.add("host.steal_share", median(steal), "ratio", steal.size());
    const auto run_s = trace::durations(spans, "core.search.run");
    for (std::size_t i = 0; i < run_s.size() && i < eval_s.size(); ++i)
        loop_s.push_back(run_s[i] - eval_s[i]);
    const auto med = [&](const char *name) {
        return median(trace::durations(spans, name));
    };
    const auto unitMed = [&](const char *name) {
        return median(trace::perUnitTotals(spans, name));
    };
    const std::size_t n = traced_s.size();
    rep.add("workload.shards_s", unitMed("workload.shards"), "s", n);
    rep.add("profiler.profile_s", unitMed("profiler.profile"), "s", n);
    rep.add("uarch.signatures_s", unitMed("uarch.signatures"), "s", n);
    rep.add("core.sampler.build_s", med("core.sampler.build"), "s", n);
    rep.add("core.sampler.sample_s", unitMed("core.sampler.sample"), "s",
            n);
    rep.add("core.search.folds_s", med("core.search.folds"), "s", n);
    rep.add("core.search.run_s", median(run_s), "s", n);
    rep.add("core.search.eval_s", median(eval_s), "s", n);
    rep.add("core.search.loop_s", median(loop_s), "s", n);
    rep.add("core.search.evaluate_ms", median(evaluate_ms), "ms", n);
    rep.add("stats.lstsq_us", median(lstsq_us), "us", n);
    for (const char *name : {"core.search.evaluations",
                             "core.search.hit_ratio",
                             "core.search.model_fits"})
        rep.add(name, counts.at(name),
                std::string(name) == "core.search.hit_ratio" ? "ratio"
                                                             : "count");
    rep.add("core.model.fit_ms", 1e3 * med("core.model.fit"), "ms", n);
    rep.add("core.model.validate_ms", 1e3 * med("core.model.validate"),
            "ms", n);
    rep.add("core.serialize_ms", 1e3 * med("core.serialize"), "ms", n);
    rep.add("trace.unaccounted_share",
            trace::unaccountedShare(spans, "train.unit"), "ratio", n);
    rep.add("trace.overhead_pct",
            100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
            plain_s.size());
    return rep;
}

} // namespace perfbench
