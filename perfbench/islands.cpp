/**
 * @file
 * `islands`: a distributed island search. An in-process
 * serve::IslandCoordinator sits behind a serve::Server on loopback;
 * four serve::runIslandWorker threads, each with a 1-thread search,
 * evolve 16 specs for 12 generations with sync migration of 2
 * migrants every 2 generations, checkpointing every generation and
 * journaling coordination into a directory on local disk. It is the
 * one workload that reaches the coordination verbs, leases and
 * heartbeats, migration barriers and per-generation checkpoints; the
 * slowest island sets its time.
 *
 * The training sample is built at set-up, as `train` builds it. One
 * unit runs from the first join to the merged champion.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>

#include "core/checkpoint.hpp"
#include "core/island.hpp"
#include "counters.hpp"
#include "serve/island.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workload/apps.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr std::size_t kIslands = 4;
constexpr int kSetups = 3;

core::IslandOptions
islandOptions(const TrainInputs &in)
{
    core::IslandOptions o;
    o.ga.populationSize = 16;
    o.ga.generations = 12;
    o.ga.seed = in.gaSeed;
    o.ga.numThreads = 1;
    o.islands = kIslands;
    o.migrationInterval = 2;
    o.migrants = 2;
    return o;
}

struct UnitRun
{
    Interval interval;
    core::GaResult result;
    serve::IslandCoordinatorStats stats;
    std::vector<core::IslandReport> reports;
    std::vector<double> workerSeconds;
    double checkpointSaveMs = 0.0; ///< probed in traced units only
};

UnitRun
runUnit(const core::Dataset &train, core::IslandOptions opts,
        const std::string &scratch, std::uint64_t unit, bool traced)
{
    const std::filesystem::path dir = std::filesystem::path(scratch) /
        ("islands-" + std::to_string(::getpid()) + "-" +
         std::to_string(unit));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    opts.checkpointDir = dir.string();

    UnitRun out;
    serve::IslandCoordinatorOptions copts;
    copts.journalPath = (dir / "coordination.journal").string();
    auto registry = std::make_shared<serve::ModelRegistry>();
    serve::IslandCoordinator coordinator(opts, copts);
    serve::Server server(registry, {}, nullptr, &coordinator);
    server.start();

    trace::setEnabled(traced);
    const Stamp t0 = Stamp::now();
    {
        trace::Scope root("islands.unit", unit);
        std::vector<std::optional<core::IslandReport>> reports(kIslands);
        out.workerSeconds.assign(kIslands, 0.0);
        std::vector<std::thread> workers;
        for (std::size_t i = 0; i < kIslands; ++i) {
            workers.emplace_back([&, i, parent = root.id()] {
                trace::Scope s("serve.island.worker", unit, parent);
                const auto w0 = Clock::now();
                serve::IslandWorkerOptions w;
                w.port = server.port();
                w.island = i;
                reports[i] = serve::runIslandWorker(train, opts, w);
                out.workerSeconds[i] = secondsSince(w0);
            });
        }
        for (std::thread &t : workers)
            t.join();
        if (coordinator.waitForReports(60.0))
            out.result = coordinator.result();
        for (auto &r : reports)
            if (r)
                out.reports.push_back(std::move(*r));
    }
    out.interval = Interval::between(t0, Stamp::now());
    trace::setEnabled(false);
    out.stats = coordinator.stats();
    server.stop();

    if (traced) {
        // saveCheckpointToFile on a checkpoint the run itself wrote.
        const auto cp = core::loadCheckpointFromFile(
            core::islandCheckpointPath(opts, 0));
        std::vector<double> ms;
        const std::string probe = (dir / "probe.ckpt").string();
        for (int rep = 0; cp && rep < 21; ++rep) {
            const auto c0 = Clock::now();
            core::saveCheckpointToFile(*cp, probe);
            ms.push_back(1e3 * secondsSince(c0));
        }
        out.checkpointSaveMs = median(ms);
    }
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace

Report
runIslands(const Args &args, Clock::time_point process_start)
{
    Report rep;
    const TrainInputs in = TrainInputs::fromSeed(args.seed);
    std::vector<double> setups;
    std::unique_ptr<core::SpaceSampler> sampler;
    core::Dataset train;
    for (int k = 0; k < kSetups; ++k) {
        sampler.reset();
        const Stamp stamp = Stamp::now();
        sampler = std::make_unique<core::SpaceSampler>(wl::makeSuite(),
                                                       cliSamplerOptions());
        train = sampler->sample(in.pairs, in.trainSeed);
        setups.push_back(
            unstolenSince(k == 0 ? process_start : stamp.wall, stamp));
    }
    const core::IslandOptions opts = islandOptions(in);

    std::optional<UnitRun> first;
    double peak_rss_mb = 0.0;
    std::vector<double> plain_s, traced_s, worker_max, worker_min,
        eval_sum, ckpt_ms, steal;
    const auto start = Clock::now();
    for (std::uint64_t unit = 0;
         unit < 2 || secondsSince(start) < args.seconds; ++unit) {
        const bool traced = args.trace && unit % 2 == 0;
        UnitRun run = runUnit(train, opts, args.scratch, unit, traced);
        if (unit == 0)
            peak_rss_mb = peakRssMb();
        (traced ? traced_s : plain_s).push_back(run.interval.unstolen());
        steal.push_back(run.interval.stealShare);
        double evals = 0.0;
        for (const core::IslandReport &r : run.reports)
            evals += readSearch(r.metrics).at("core.search.eval_s");
        if (traced) {
            const double kept = 1.0 - run.interval.stealShare;
            worker_max.push_back(kept * *std::max_element(
                run.workerSeconds.begin(), run.workerSeconds.end()));
            worker_min.push_back(kept * *std::min_element(
                run.workerSeconds.begin(), run.workerSeconds.end()));
            eval_sum.push_back(evals);
            ckpt_ms.push_back(run.checkpointSaveMs);
        }
        ++rep.attempted;
        bool ok = run.reports.size() == kIslands &&
            !run.result.population.empty();
        if (!ok)
            rep.gateFailed("unit " + std::to_string(unit) +
                           " did not complete");
        else if (first && !sameChampion(first->result, run.result)) {
            rep.gateFailed("unit " + std::to_string(unit) +
                           " found a different champion");
            ok = false;
        }
        if (!ok)
            ++rep.failed;
        std::printf("unit %llu: %.3f s%s, %.3f s less steal, cpu %.3f s, "
                    "islands %.3f..%.3f s\n",
                    static_cast<unsigned long long>(unit), run.interval.wall,
                    traced ? " (traced)" : "", run.interval.unstolen(),
                    run.interval.cpu,
                    *std::min_element(run.workerSeconds.begin(),
                                      run.workerSeconds.end()),
                    *std::max_element(run.workerSeconds.begin(),
                                      run.workerSeconds.end()));
        std::fflush(stdout);
        if (!first && ok)
            first = std::move(run);
    }
    if (!first) {
        rep.gateFailed("no unit completed");
        return rep;
    }

    // The distributed champion must be the in-process reference's,
    // bit for bit; checked outside the timed units.
    const core::GaResult reference = core::runIslandModel(train, opts);
    if (!sameChampion(reference, first->result)) {
        rep.gateFailed("champion differs from core::runIslandModel");
        ++rep.failed;
    }

    if (!args.trace) {
        core::HwSwModel model;
        model.fit(first->result.best.spec, train);
        const core::Dataset held_out =
            sampler->sample(in.heldOutPairs, in.heldOutSeed);
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("run_s", median(plain_s), "s", plain_s.size());
        rep.add("err_pct", 100.0 * model.validate(held_out).medianAbsPctError,
                "%", held_out.size());
        rep.add("peak_rss_mb", peak_rss_mb, "MB");
        return rep;
    }

    const auto spans = trace::collect();
    trace::writeJsonLines(spans, args.scratch + "/trace-islands.jsonl");
    rep.add("host.steal_share", median(steal), "ratio", steal.size());
    const std::size_t n = traced_s.size();
    rep.add("serve.island.worker_max_s", median(worker_max), "s", n);
    rep.add("serve.island.worker_min_s", median(worker_min), "s", n);
    rep.add("core.search.eval_s", median(eval_sum), "s", n);
    const Readings c = readIslands(first->stats);
    for (const char *name : {"serve.island.wait_answers",
                             "serve.island.heartbeats",
                             "serve.island.migrate_posts"})
        rep.add(name, c.at(name), "count");
    rep.add("core.checkpoint.save_ms", median(ckpt_ms), "ms", n);
    rep.add("trace.unaccounted_share",
            trace::unaccountedShare(spans, "islands.unit"), "ratio", n);
    rep.add("trace.overhead_pct",
            100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
            plain_s.size());
    return rep;
}

} // namespace perfbench
