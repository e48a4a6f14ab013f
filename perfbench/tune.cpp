/**
 * @file
 * `tune`: the default `hwsw tune` loop on the SpMV plant, whose live
 * matrix drifts from raefsky3 to memplus at observation 100, with a
 * journal directory on local disk (one fdatasync per observation, a
 * snapshot and a compaction at each publish) and the loop options of
 * bench_tune_closedloop. It is the one workload with durable writes
 * on the hot path, registry publishes while predictions read the
 * pinned model, and a warm-started re-specification.
 *
 * One unit is one fresh 400-observation loop after Controller::start;
 * building the plant and bootstrapping the controller is set-up.
 */
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <unistd.h>

#include "counters.hpp"
#include "serve/journal.hpp"
#include "trace.hpp"
#include "tune/controller.hpp"
#include "tune/spmv_plant.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr std::size_t kDriftAt = 100;
constexpr std::size_t kTotal = 400;
constexpr std::size_t kTail = 100; ///< post-adaptation window

tune::SpmvPlantOptions
plantOptions()
{
    tune::SpmvPlantOptions o;
    o.driftAt = kDriftAt;
    return o;
}

/**
 * The GA keeps its default seed: the loop is scripted, so the
 * benchmark seed changes nothing here. (With GA seed 43 the bootstrap
 * model is poor enough that the detector fires at observation 9,
 * before any drift.)
 */
tune::ControllerOptions
loopOptions(const std::string &journal_dir)
{
    tune::ControllerOptions o;
    o.journalDir = journal_dir;
    o.cadence = 4;
    o.verifyWindow = 5;
    o.drift.window = 16;
    o.drift.minSamples = 8;
    o.drift.hysteresis = 3;
    o.ga.populationSize = 20;
    o.ga.generations = 8;
    o.manager.profilesForUpdate = 10;
    o.manager.updateGenerations = 6;
    return o;
}

/**
 * The plant seen through the controller's two interfaces, with a
 * span around every call into it. In traced units it also keeps the
 * polled records for the journal and predict probes.
 */
class TracedPlant final : public tune::TelemetrySource,
                          public tune::Actuator
{
  public:
    explicit TracedPlant(tune::SpmvPlant &plant) : plant_(plant) {}

    std::vector<core::ProfileRecord> polled;
    bool keep = false;

    std::optional<core::ProfileRecord> poll() override
    {
        trace::Scope s("tune.plant.poll");
        auto rec = plant_.poll();
        if (keep && rec)
            polled.push_back(*rec);
        return rec;
    }
    bool exhausted() const override { return plant_.exhausted(); }
    void fastForward(std::size_t n) override { plant_.fastForward(n); }

    std::size_t numCandidates() const override
    {
        return plant_.numCandidates();
    }
    core::ProfileRecord
    candidateRecord(std::size_t i,
                    const core::ProfileRecord &latest) const override
    {
        return plant_.candidateRecord(i, latest);
    }
    std::size_t currentCandidate() const override
    {
        return plant_.currentCandidate();
    }
    void actuate(std::size_t i) override
    {
        trace::Scope s("tune.plant.actuate");
        plant_.actuate(i);
    }
    std::string describeCandidate(std::size_t i) const override
    {
        return plant_.describeCandidate(i);
    }

  private:
    tune::SpmvPlant &plant_;
};

/** One fresh loop, from plant construction to Controller::stop. */
struct LoopRun
{
    double setupSeconds = 0.0;
    double respecSeconds = 0.0;
    Interval interval; ///< the loop itself
    std::size_t respecStep = tune::ControllerStats::kNone;
    std::vector<double> stepMs;
    std::vector<double> residual;
    std::vector<std::size_t> candidateBefore; ///< in effect at each poll
    tune::ControllerStats stats;
    serve::UpdaterStats updater;
    serve::SnapshotPtr frozen; ///< the bootstrap model
    serve::SnapshotPtr final;  ///< the model pinned at the end
    std::vector<core::ProfileRecord> polled;
};

LoopRun
runLoop(const Args &args, std::uint64_t unit, bool traced,
        Clock::time_point setup_start)
{
    LoopRun out;
    const Stamp setup_stamp = Stamp::now();
    const std::filesystem::path dir =
        std::filesystem::path(args.scratch) /
        ("tune-" + std::to_string(::getpid()) + "-" +
         std::to_string(unit));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    tune::SpmvPlant plant(plantOptions());
    TracedPlant io(plant);
    io.keep = traced;
    tune::Controller ctrl(io, io, loopOptions(dir.string()));
    ctrl.start(plant.bootstrapDataset());
    out.frozen = ctrl.pinnedModel();
    out.setupSeconds = unstolenSince(setup_start, setup_stamp);

    trace::setEnabled(traced);
    const Stamp t0 = Stamp::now();
    {
        trace::Scope root("tune.unit", unit);
        Clock::time_point drift_seen{};
        for (std::size_t i = 0; i < kTotal; ++i) {
            out.candidateBefore.push_back(plant.currentCandidate());
            const auto s0 = Clock::now();
            bool more = false;
            {
                trace::Scope s("tune.step", unit);
                more = ctrl.step();
            }
            out.stepMs.push_back(1e3 * secondsSince(s0));
            if (!more)
                break;
            out.residual.push_back(ctrl.lastResidual());
            const auto &st = ctrl.stats();
            if (drift_seen == Clock::time_point{} &&
                st.firstDriftStep != tune::ControllerStats::kNone)
                drift_seen = Clock::now();
            if (drift_seen != Clock::time_point{} &&
                out.respecStep == tune::ControllerStats::kNone &&
                st.respecs > 0) {
                out.respecStep = ctrl.stepIndex();
                out.respecSeconds = secondsSince(drift_seen);
            }
        }
        trace::Scope s("tune.stop", unit);
        ctrl.stop();
    }
    out.interval = Interval::between(t0, Stamp::now());
    for (double &ms : out.stepMs)
        ms *= 1.0 - out.interval.stealShare;
    trace::setEnabled(false);

    out.stats = ctrl.stats();
    out.updater = ctrl.updater().stats();
    out.final = ctrl.pinnedModel();
    out.polled = std::move(io.polled);
    std::filesystem::remove_all(dir);
    return out;
}

/**
 * Tail error of the frozen bootstrap model on a twin plant that
 * mirrors the loop's placements until the drift, then keeps them:
 * what a deployment without the tuning loop would see.
 */
double
frozenTailErrPct(const LoopRun &run)
{
    tune::SpmvPlant twin(plantOptions());
    std::vector<double> err;
    for (std::size_t i = 0; i < run.residual.size(); ++i) {
        if (i < kDriftAt)
            twin.actuate(run.candidateBefore[i]);
        const auto rec = twin.poll();
        if (i + kTail >= run.residual.size() && rec)
            err.push_back(std::abs(run.frozen->model.predict(*rec) -
                                   rec->perf) /
                          std::max(std::abs(rec->perf), 1e-12));
    }
    return 100.0 * median(err);
}

double
tailErrPct(const LoopRun &run)
{
    const std::size_t n = run.residual.size();
    const std::size_t from = n > kTail ? n - kTail : 0;
    return 100.0 *
        median(std::vector<double>(run.residual.begin() + from,
                                   run.residual.end()));
}

/** Gates of bench_tune_closedloop, against the frozen twin. */
bool
checkGates(const LoopRun &run, double frozen_err, Report &rep)
{
    constexpr auto kNone = tune::ControllerStats::kNone;
    const auto &st = run.stats;
    bool ok = true;
    const auto gate = [&](bool pass, const char *what) {
        if (!pass) {
            rep.gateFailed(what);
            ok = false;
        }
    };
    gate(run.residual.size() == kTotal, "loop ended early");
    gate(st.drifts >= 1 && st.firstDriftStep != kNone &&
             st.firstDriftStep >= kDriftAt,
         "drift not detected after the drift");
    gate(st.respecs >= 1 && run.respecStep != kNone,
         "no fresh model pinned");
    gate(st.lastActuationStep != kNone && st.lastActuationStep > kDriftAt,
         "actuator did not move after the drift");
    gate(tailErrPct(run) < frozen_err,
         "adapted error not below the frozen model's");
    return ok;
}

} // namespace

Report
runTune(const Args &args, Clock::time_point process_start)
{
    Report rep;
    std::vector<double> setups, plain_s, traced_s, step_ms, err, respec_s,
        steal;
    std::optional<LoopRun> first;
    double frozen_err = 0.0, peak_rss_mb = 0.0;
    std::vector<double> poll_us, append_us, predict_us;

    const auto start = Clock::now();
    for (std::uint64_t unit = 0;
         unit < 2 || secondsSince(start) < args.seconds; ++unit) {
        const bool traced = args.trace && unit % 2 == 0;
        LoopRun run = runLoop(args, unit, traced,
                              unit == 0 ? process_start : Clock::now());
        if (unit == 0)
            peak_rss_mb = peakRssMb();
        setups.push_back(run.setupSeconds);
        (traced ? traced_s : plain_s).push_back(run.interval.unstolen());
        steal.push_back(run.interval.stealShare);
        step_ms.insert(step_ms.end(), run.stepMs.begin(), run.stepMs.end());
        err.push_back(tailErrPct(run));
        respec_s.push_back(run.respecSeconds);
        if (!first)
            frozen_err = frozenTailErrPct(run);
        ++rep.attempted;
        if (!checkGates(run, frozen_err, rep))
            ++rep.failed;
        std::printf("unit %llu: %.3f s%s, %.3f s less steal, cpu %.3f s "
                    "(set-up %.3f s), drift seen at "
                    "%zu, re-spec pinned at %zu, tail error %.2f%% vs "
                    "frozen %.2f%%\n",
                    static_cast<unsigned long long>(unit), run.interval.wall,
                    traced ? " (traced)" : "", run.interval.unstolen(),
                    run.interval.cpu, run.setupSeconds,
                    run.stats.firstDriftStep, run.respecStep, err.back(),
                    frozen_err);
        std::fflush(stdout);

        if (traced) {
            // Probes on the records this loop polled: the journal's
            // durable append and the pinned model's predict.
            const std::string wal = args.scratch + "/tune-probe-" +
                std::to_string(::getpid()) + ".wal";
            std::filesystem::remove(wal);
            {
                serve::ObservationJournal journal(wal);
                if (journal.open()) {
                    for (const core::ProfileRecord &r : run.polled) {
                        const auto t0 = Clock::now();
                        journal.append(r);
                        append_us.push_back(1e6 * secondsSince(t0));
                    }
                }
            }
            std::filesystem::remove(wal);
            for (const core::ProfileRecord &r : run.polled) {
                const auto t0 = Clock::now();
                const double p = run.final->model.predict(r);
                predict_us.push_back(1e6 * secondsSince(t0));
                (void)p;
            }
        }
        if (!first)
            first = std::move(run);
    }

    if (!args.trace) {
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("run_s", median(plain_s), "s", plain_s.size());
        rep.add("err_pct", median(err), "%", err.size());
        rep.add("peak_rss_mb", peak_rss_mb, "MB");
        return rep;
    }

    const auto spans = trace::collect();
    trace::writeJsonLines(spans, args.scratch + "/trace-tune.jsonl");
    rep.add("host.steal_share", median(steal), "ratio", steal.size());
    const std::size_t n = traced_s.size();
    for (double s : trace::durations(spans, "tune.plant.poll"))
        poll_us.push_back(1e6 * s);
    rep.add("tune.step_p50_ms", median(step_ms), "ms", step_ms.size());
    rep.add("tune.step_p99_ms", quantile(step_ms, 0.99), "ms",
            step_ms.size());
    rep.add("tune.plant.poll_us", median(poll_us), "us", poll_us.size());
    rep.add("serve.journal.append_p50_us", median(append_us), "us",
            append_us.size());
    rep.add("serve.journal.append_p99_us", quantile(append_us, 0.99), "us",
            append_us.size());
    rep.add("core.model.predict_us", median(predict_us), "us",
            predict_us.size());
    rep.add("tune.respec_s", median(respec_s), "s", respec_s.size());
    const Readings c = readController(first->stats, first->updater);
    rep.add("tune.detect_obs",
            c.at("tune.first_drift_step") - static_cast<double>(kDriftAt),
            "obs");
    rep.add("tune.respec_obs",
            static_cast<double>(first->respecStep) -
                static_cast<double>(kDriftAt),
            "obs");
    rep.add("tune.actuations", c.at("tune.actuations"), "count");
    rep.add("tune.rollbacks", c.at("tune.rollbacks"), "count");
    rep.add("serve.updater.updates", c.at("serve.updater.updates"),
            "count");
    rep.add("trace.unaccounted_share",
            trace::unaccountedShare(spans, "tune.unit"), "ratio", n);
    rep.add("trace.overhead_pct",
            100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
            plain_s.size());
    return rep;
}

} // namespace perfbench
