/**
 * @file
 * `serve`: a served prediction under open-loop load. An in-process
 * serve::Server (default options) serves the `train` champion loaded
 * back from its saved text. One generator thread sends pre-encoded
 * requests on a Poisson schedule over one connection per reactor
 * shard; one receiver thread per connection matches the in-order
 * responses to their due times, so every latency is timed from when
 * the request was due, and stalls of the generator itself show as
 * lateness.
 *
 * The mix is 70% `predict` of 1 row, 25% `batch` of 8 rows (what
 * `hwsw predict` sends) and 5% `batch` of 256 rows (a scheduler
 * scoring many job x node pairs): the small requests take the
 * engine's per-row path, where socket, decode, dispatch and encode
 * dominate, and the large ones its GEMM path.
 *
 * One-second intervals at a fixed nominal rate alternate with
 * one-second rate steps, which search for the highest rate that meets
 * the latency limit with an on-time generator and no growing backlog.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "counters.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hwsw;

namespace {

constexpr double kLimitMs = 50.0; ///< the serving p99 limit
/** Generator lateness beyond which a rate step is not met. */
constexpr double kLateLimitMs = kLimitMs / 10.0;
/**
 * Phase 1 rate, requests/s: about a quarter of the capacity measured
 * at the commit that added this benchmark (35-40k req/s on a shared
 * 4-vCPU VM). At half capacity, p99 swung between 15 and 230 ms from
 * one 4-second interval to the next; at this rate it holds near 2 ms.
 */
constexpr double kNominalRps = 10000.0;
constexpr double kDrainSeconds = 5.0;
constexpr std::size_t kPoolSize = 1024;
constexpr int kSetups = 3;
constexpr auto kSpin = std::chrono::microseconds(500);

struct Request
{
    std::string frame;    ///< length-prefixed request
    std::string expected; ///< the only correct response payload
    std::size_t rows = 1;
};

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Everything a serve run needs, built from the seed. */
struct ServeSetup
{
    core::HwSwModel model;
    core::Dataset rows;
    std::shared_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::Server> server;
    std::vector<Request> pool;
    int fds[2] = {-1, -1};
    double errPct = 0.0;

    ServeSetup() = default;
    ServeSetup(const ServeSetup &) = delete;
    ServeSetup &operator=(const ServeSetup &) = delete;
    ~ServeSetup()
    {
        for (int fd : fds)
            if (fd >= 0)
                ::close(fd);
        if (server)
            server->stop();
    }

    bool reconnect(int conn)
    {
        if (fds[conn] >= 0)
            ::close(fds[conn]);
        fds[conn] = connectLoopback(server->port());
        return fds[conn] >= 0;
    }
};

std::string
expectedResponse(std::uint64_t version, std::span<const double> values,
                 bool batch)
{
    std::string out = "ok " + std::to_string(version) + " ";
    if (batch)
        out += std::to_string(values.size()) + " ";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ' ';
        out += serve::formatDouble(values[i]);
    }
    return out;
}

std::unique_ptr<ServeSetup>
setUp(std::uint64_t seed)
{
    auto s = std::make_unique<ServeSetup>();
    const TrainInputs in = TrainInputs::fromSeed(seed);
    const TrainOutcome trained = trainChain(in, 0);
    s->model = core::loadModelFromString(trained.modelText);
    s->rows = trained.sampler->sample(in.heldOutPairs, in.heldOutSeed);
    s->errPct = 100.0 * s->model.validate(s->rows).medianAbsPctError;

    s->registry = std::make_shared<serve::ModelRegistry>();
    const std::uint64_t version =
        s->registry->publish("default", s->model, "perfbench");

    // Expected answers come from the in-process per-row predict: the
    // server must reproduce them bit for bit on both of its paths.
    std::vector<double> expected(s->rows.size());
    for (std::size_t i = 0; i < s->rows.size(); ++i)
        expected[i] = s->model.predict(s->rows[i]);

    Rng rng(seed * 7919 + 17);
    s->pool.reserve(kPoolSize);
    std::vector<serve::FeatureVector> batch;
    std::vector<double> values;
    for (std::size_t r = 0; r < kPoolSize; ++r) {
        const double u = rng.nextDouble();
        const std::size_t n = u < 0.70 ? 1 : u < 0.95 ? 8 : 256;
        const std::size_t at = rng.nextInt(s->rows.size());
        batch.clear();
        values.clear();
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t k = (at + j) % s->rows.size();
            batch.push_back(s->rows[k].vars);
            values.push_back(expected[k]);
        }
        Request req;
        req.rows = n;
        const std::string payload = n == 1
            ? serve::makePredictRequest("default", batch[0])
            : serve::makeBatchRequest("default", batch);
        serve::appendFrame(req.frame, payload);
        req.expected = expectedResponse(version, values, n > 1);
        s->pool.push_back(std::move(req));
    }

    s->server = std::make_unique<serve::Server>(s->registry);
    s->server->start();
    for (int c = 0; c < 2; ++c)
        if (!s->reconnect(c))
            throw std::runtime_error("cannot connect to the server");
    return s;
}

/** One open-loop interval at a fixed offered rate. */
struct StepResult
{
    double rps = 0.0;
    double offeredPredPerS = 0.0;
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0; ///< well-formed answers with other bytes
    std::vector<double> latMs;        ///< every answered request
    std::vector<double> predictLatMs; ///< 1-row requests
    std::vector<double> bigLatMs;     ///< 256-row requests
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double lateP99Ms = 0.0;
    double stealShare = 0.0;
    std::size_t backlogMid = 0;
    std::size_t backlogEnd = 0;
    bool backlogGrew = false;
    bool met = false;
};

StepResult
runStep(ServeSetup &s, double rps, double seconds, Rng &rng,
        std::size_t &cursor, bool traced)
{
    StepResult res;
    res.rps = rps;
    // Schedule: Poisson arrivals, requests taken round the pool,
    // alternating between the two connections.
    std::vector<double> due;
    for (double t = rng.nextExponential(1.0 / rps); t < seconds;
         t += rng.nextExponential(1.0 / rps))
        due.push_back(t);
    const std::size_t n = due.size();
    std::vector<std::size_t> pick(n);
    std::size_t preds = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pick[i] = cursor++ % s.pool.size();
        preds += s.pool[pick[i]].rows;
    }
    res.offeredPredPerS = static_cast<double>(preds) / seconds;

    // startAt: send began; sentAt: send returned (traced only).
    std::vector<Clock::time_point> dueAt(n), startAt(n), sentAt(n),
        recvAt(n);
    std::vector<char> status(n, 0); // 0 missing, 1 ok, 2 failed, 3 wrong
    std::atomic<std::size_t> received{0};
    const Stamp begin = Stamp::now();
    const Clock::time_point t0 = begin.wall +
        std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i)
        dueAt[i] = t0 +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due[i]));
    const auto deadline = serve::resilience::Deadline::after(
        seconds + kDrainSeconds);
    std::atomic<bool> broken[2] = {false, false};

    std::vector<std::thread> receivers;
    for (int c = 0; c < 2; ++c) {
        receivers.emplace_back([&, c] {
            std::string payload;
            for (std::size_t i = c; i < n; i += 2) {
                if (serve::readFrame(s.fds[c], payload, deadline) !=
                    serve::IoStatus::Ok) {
                    broken[c] = true;
                    break;
                }
                recvAt[i] = Clock::now();
                const Request &req = s.pool[pick[i]];
                if (payload == req.expected)
                    status[i] = 1;
                else if (payload.starts_with("ok "))
                    status[i] = 3;
                else
                    status[i] = 2;
                received.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    for (std::size_t i = 0; i < n; ++i) {
        // Sleep to just short of the due time, then spin: a sleeping
        // thread's wake-up delay would otherwise read as lateness.
        std::this_thread::sleep_until(dueAt[i] - kSpin);
        while (Clock::now() < dueAt[i]) {
        }
        startAt[i] = Clock::now();
        const int c = static_cast<int>(i % 2);
        const std::string &frame = s.pool[pick[i]].frame;
        if (!broken[c] &&
            serve::writeFull(s.fds[c], frame.data(), frame.size()) !=
                serve::IoStatus::Ok)
            broken[c] = true;
        if (traced)
            sentAt[i] = Clock::now();
        if (i == n / 2)
            res.backlogMid = i + 1 - received.load();
    }
    res.backlogEnd = n - received.load();
    for (std::thread &t : receivers)
        t.join();
    res.stealShare = Interval::between(begin, Stamp::now()).stealShare;

    std::vector<double> late(n);
    res.sent = n;
    for (std::size_t i = 0; i < n; ++i) {
        late[i] = 1e3 * secondsBetween(dueAt[i], startAt[i]);
        if (status[i] != 1) {
            ++res.failed;
            res.wrong += status[i] == 3;
            continue;
        }
        ++res.ok;
        const double ms = 1e3 * secondsBetween(dueAt[i], recvAt[i]);
        res.latMs.push_back(ms);
        const std::size_t rows = s.pool[pick[i]].rows;
        if (rows == 1)
            res.predictLatMs.push_back(ms);
        else if (rows == 256)
            res.bigLatMs.push_back(ms);
        if (traced) {
            trace::Span root;
            root.name = "serve.request";
            root.id = trace::newId();
            root.unit = i;
            root.start = trace::toTraceTime(dueAt[i]);
            root.end = trace::toTraceTime(recvAt[i]);
            trace::Span send = root;
            send.name = "serve.gen.send";
            send.id = trace::newId();
            send.parent = root.id;
            send.start = trace::toTraceTime(startAt[i]);
            send.end = trace::toTraceTime(sentAt[i]);
            trace::record(root);
            trace::record(send);
        }
    }
    for (int c = 0; c < 2; ++c)
        if (broken[c])
            s.reconnect(c);

    res.p50Ms = median(res.latMs);
    res.p99Ms = quantile(res.latMs, 0.99);
    res.lateP99Ms = quantile(late, 0.99);
    res.backlogGrew = res.backlogEnd >
        std::max<std::size_t>(2 * res.backlogMid,
                              static_cast<std::size_t>(
                                  rps * kLimitMs / 1e3));
    res.met = res.failed == 0 && res.p99Ms <= kLimitMs &&
        res.lateP99Ms <= kLateLimitMs && !res.backlogGrew;
    std::printf("rate %7.0f req/s (%8.0f pred/s): sent %zu ok %zu "
                "failed %zu, p50 %.3f ms p99 %.3f ms, late p99 %.3f ms, "
                "backlog %zu->%zu, steal %.3f: %s\n",
                rps, res.offeredPredPerS, res.sent, res.ok, res.failed,
                res.p50Ms, res.p99Ms, res.lateP99Ms, res.backlogMid,
                res.backlogEnd, res.stealShare, res.met ? "met" : "not met");
    std::fflush(stdout);
    return res;
}

void
tally(Report &rep, const StepResult &r)
{
    rep.attempted += r.sent;
    rep.failed += r.failed;
    if (r.wrong)
        rep.gateFailed(std::to_string(r.wrong) +
                       " responses differ from in-process predict");
}

/** Median wall time of @p fn over @p reps calls, in microseconds. */
template <typename Fn>
double
medianUs(int reps, Fn &&fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(1e6 * secondsSince(t0));
    }
    return median(us);
}

/** Direct calls into the engine and the protocol, off the wire. */
void
probeLayers(ServeSetup &s, Report &rep)
{
    std::vector<serve::FeatureVector> rows;
    for (std::size_t i = 0; rows.size() < 256; ++i)
        rows.push_back(s.rows[i % s.rows.size()].vars);
    serve::PredictionEngine &engine = s.server->engine();
    for (const std::size_t n : {1u, 8u, 256u}) {
        const auto span = std::span(rows).first(n);
        const double us = medianUs(n == 256 ? 301 : 2001, [&] {
            const auto out = engine.predict("default", span);
            (void)out;
        });
        rep.add("serve.engine.rows" + std::to_string(n) + "_us", us, "us");
    }

    // The server's own decode of a 256-row batch, step for step.
    const std::string request =
        serve::makeBatchRequest("default", rows);
    const double decode_us = medianUs(301, [&] {
        const auto [head, body] = serve::splitFirstLine(request);
        (void)head;
        std::vector<serve::FeatureVector> parsed;
        parsed.reserve(rows.size());
        std::string_view rest = body;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto [line, tail] = serve::splitFirstLine(rest);
            rest = tail;
            const auto tokens = serve::splitTokens(line);
            parsed.push_back(serve::parseRow(tokens).value());
        }
    });
    std::vector<double> values(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        values[i] = s.model.predict(s.rows[i % s.rows.size()]);
    const double encode_us = medianUs(301, [&] {
        const std::string out = expectedResponse(1, values, true);
        (void)out;
    });
    rep.add("serve.protocol.decode256_us", decode_us, "us");
    rep.add("serve.protocol.encode256_us", encode_us, "us");

    double bytes = 0.0, preds = 0.0;
    for (const Request &r : s.pool) {
        bytes += static_cast<double>(r.frame.size() + 4 +
                                     r.expected.size());
        preds += static_cast<double>(r.rows);
    }
    rep.add("serve.protocol.bytes_per_pred", bytes / preds, "B");
}

/** Nominal-rate figures over the least-stolen half of the intervals. */
struct Nominal
{
    std::size_t intervals = 0;
    std::size_t samples = 0;
    double p50Ms = 0.0;        ///< median of the intervals' p50
    double p99Ms = 0.0;        ///< median of the intervals' p99
    double bigMs = 0.0;        ///< median of their 256-row medians
    double predictP50Ms = 0.0; ///< p50 of their 1-row requests
    double lateP99Ms = 0.0;    ///< worst generator p99 lateness
    std::size_t backlog = 0;   ///< largest end-of-interval backlog
    double stealShare = 0.0;   ///< median steal share
};

/**
 * Latency cannot be corrected for steal the way a unit time can, so
 * nominal figures come from the half of the intervals the hypervisor
 * took least from.
 */
Nominal
leastStolen(std::vector<StepResult> intervals)
{
    std::sort(intervals.begin(), intervals.end(),
              [](const StepResult &a, const StepResult &b) {
                  return a.stealShare < b.stealShare;
              });
    intervals.resize((intervals.size() + 1) / 2);
    Nominal n;
    std::vector<double> p50s, p99s, big, predict, steal;
    for (const StepResult &r : intervals) {
        ++n.intervals;
        n.samples += r.latMs.size();
        p50s.push_back(r.p50Ms);
        p99s.push_back(r.p99Ms);
        big.push_back(median(r.bigLatMs));
        predict.insert(predict.end(), r.predictLatMs.begin(),
                       r.predictLatMs.end());
        steal.push_back(r.stealShare);
        n.lateP99Ms = std::max(n.lateP99Ms, r.lateP99Ms);
        n.backlog = std::max(n.backlog, r.backlogEnd);
    }
    n.p50Ms = median(p50s);
    n.p99Ms = median(p99s);
    n.bigMs = median(big);
    n.predictP50Ms = median(predict);
    n.stealShare = median(steal);
    return n;
}

} // namespace

Report
runServe(const Args &args, Clock::time_point process_start)
{
    Report rep;
    std::vector<double> setups;
    std::unique_ptr<ServeSetup> setup;
    for (int k = 0; k < kSetups; ++k) {
        setup.reset();
        const Stamp stamp = Stamp::now();
        setup = setUp(args.seed);
        setups.push_back(
            unstolenSince(k == 0 ? process_start : stamp.wall, stamp));
    }
    ServeSetup &s = *setup;
    std::printf("serving %zu-column champion on port %u, %zu reactor "
                "shard(s), pool of %zu requests\n",
                s.model.numColumns(), s.server->port(),
                s.server->reactorCount(), s.pool.size());

    Rng rng(args.seed);
    std::size_t cursor = 0;
    // Warm-up, not scored: first-touch of connections and buffers.
    runStep(s, kNominalRps, 0.3, rng, cursor, false);

    // Nominal intervals alternate with the rate steps, so both sample
    // the whole run; traced runs trace every other nominal interval.
    // A rate step that lost more than kVoidSteal of its vCPU time to
    // the hypervisor gives no verdict. The steps grow by half until
    // one is not met, then bisect between the best met and the lowest
    // unmet rate.
    constexpr double kNominalSeconds = 1.5;
    constexpr double kStepSeconds = 0.5;
    constexpr double kVoidSteal = 0.1;
    std::vector<StepResult> plain, traced;
    double met_rate = 0.0, unmet_rate = 0.0;
    const auto phases = Clock::now();
    for (std::size_t k = 0; plain.empty() ||
         secondsSince(phases) + 1.25 * (kNominalSeconds + kStepSeconds) <
             args.seconds;
         ++k) {
        const bool on = args.trace && k % 2 == 1;
        trace::setEnabled(on);
        StepResult nominal =
            runStep(s, kNominalRps, kNominalSeconds, rng, cursor, on);
        trace::setEnabled(false);
        tally(rep, nominal);
        if (nominal.met && nominal.stealShare <= kVoidSteal)
            met_rate = std::max(met_rate, kNominalRps);
        (on ? traced : plain).push_back(std::move(nominal));

        const double base = std::max(met_rate, kNominalRps);
        const double rate = unmet_rate > 0.0 ? std::sqrt(base * unmet_rate)
                                             : 1.5 * base;
        const StepResult r =
            runStep(s, rate, kStepSeconds, rng, cursor, false);
        tally(rep, r);
        if (r.stealShare > kVoidSteal)
            continue;
        if (r.met)
            met_rate = std::max(met_rate, rate);
        else
            unmet_rate = unmet_rate > 0.0 ? std::min(unmet_rate, rate)
                                          : rate;
    }
    // Capacity: the middle of the final bracket, in predictions at the
    // pool's mean request size rather than one step's draw of sizes.
    double pool_rows = 0.0;
    for (const Request &r : s.pool)
        pool_rows += static_cast<double>(r.rows);
    const double capacity = (unmet_rate > met_rate && met_rate > 0.0
                                 ? std::sqrt(met_rate * unmet_rate)
                                 : met_rate) *
        pool_rows / static_cast<double>(s.pool.size());
    const Nominal nominal = leastStolen(std::move(plain));
    std::printf("nominal %.0f req/s over the %zu least-stolen intervals: "
                "p50 %.4f ms, p99 %.4f ms, 256-row p50 %.4f ms; "
                "capacity %.0f pred/s\n",
                kNominalRps, nominal.intervals, nominal.p50Ms,
                nominal.p99Ms, nominal.bigMs, capacity);

    if (!args.trace) {
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("run_s", nominal.bigMs / 1e3, "s", nominal.intervals);
        rep.add("err_pct", s.errPct, "%", s.rows.size());
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return rep;
    }

    rep.add("serve.p50_ms", nominal.p50Ms, "ms", nominal.samples);
    rep.add("serve.p99_ms", nominal.p99Ms, "ms", nominal.samples);
    rep.add("serve.max_pred_per_s", capacity, "pred/s");
    const Readings lat = readServerLatency(s.server->latency());
    for (const char *name :
         {"serve.server.predict_p50_us", "serve.server.predict_p99_us",
          "serve.server.batch_p50_us", "serve.server.batch_p99_us"})
        rep.add(name, lat.at(name), "us");
    rep.add("serve.wait_p50_ms",
            nominal.predictP50Ms -
                lat.at("serve.server.predict_p50_us") / 1e3,
            "ms", nominal.samples);
    probeLayers(s, rep);
    rep.add("serve.engine.shed",
            readEngine(s.server->engine().counters())
                .at("serve.engine.shed"),
            "count");
    rep.add("serve.errors", lat.at("serve.errors"), "count");
    rep.add("serve.gen.late_p99_ms", nominal.lateP99Ms, "ms");
    rep.add("serve.gen.backlog", static_cast<double>(nominal.backlog),
            "count");
    rep.add("host.steal_share", nominal.stealShare, "ratio",
            nominal.intervals);
    const auto spans = trace::collect();
    trace::writeJsonLines(spans, args.scratch + "/trace-serve.jsonl");
    rep.add("trace.unaccounted_share",
            trace::unaccountedShare(spans, "serve.request"), "ratio",
            spans.size() / 2);
    const Nominal with_trace = leastStolen(std::move(traced));
    rep.add("trace.overhead_pct",
            100.0 * (with_trace.p50Ms / nominal.p50Ms - 1.0), "%",
            with_trace.samples);
    return rep;
}

} // namespace perfbench
