/**
 * @file
 * Out-of-core replay: peak RSS and wall time of windowed streaming
 * replay as the trace grows from ~1M to ~100M requests.
 *
 * The claim under test is the tentpole contract of the streaming
 * substrate: replaying an mmapped `.ctrb` image through a ReplayWindow
 * keeps peak RSS a function of the *window*, not the *trace* — flat
 * within noise across a 100x size span — while wall time stays ~linear
 * in the request count.
 *
 * Method:
 *
 *  1. Generate the azure-like reference trace once and write it as the
 *     base `.ctrb` image (~500k requests at default scale; the scale is
 *     chosen so the simulated cluster *keeps up* — an overloaded
 *     workload accumulates a deferred-request backlog whose heap
 *     footprint grows with trace length no matter how the trace is
 *     streamed, which would measure queueing, not the replay substrate).
 *  2. For each size multiplier k, synthesize a k-times-larger image via
 *     the `cidre_sim synth` path (streaming column merge: the 100M-row
 *     image is built without ever materializing it).
 *  3. Replay each image in a freshly forked child process — getrusage
 *     ru_maxrss is process-monotone, so per-size attribution needs one
 *     process per measurement — stepping an Engine through window-sized
 *     epochs with ReplayWindow advice, and collect the child's peak RSS
 *     and wall clock over a pipe.
 *
 * Results are printed as a table and written as JSON (default
 * BENCH_out_of_core.json; override with --out).  --smoke shrinks the
 * base trace and the size span for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench/common.h"
#include "cli/commands.h"
#include "exp/telemetry.h"
#include "policies/registry.h"
#include "trace/replay_window.h"
#include "trace/trace_image.h"

namespace cidre::bench {
namespace {

/** What one child process measures and reports on stdout. */
struct ReplayRun
{
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    double open_ms = 0.0;
    double replay_ms = 0.0;
    double events_per_sec = 0.0;
    std::int64_t peak_rss_mb = -1;
    double image_mb = 0.0;
    double synth_ms = 0.0; //!< parent-side: streaming merge wall clock
};

double
wallMsSince(std::chrono::steady_clock::time_point started)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started)
        .count();
}

/**
 * The child body: windowed streaming replay of one image, reported as
 * a single JSON line on stdout.  Runs in its own process so ru_maxrss
 * is exactly this replay's high-water mark.
 */
int
runReplayChild(const std::string &image_path, std::int64_t window_sec,
               const std::string &policy)
{
    using namespace cidre;
    auto started = std::chrono::steady_clock::now();
    const trace::TraceImage image = trace::TraceImage::open(
        image_path, trace::TraceOpenMode::Streaming);
    const double open_ms = wallMsSince(started);

    core::EngineConfig config = defaultConfig();
    core::Engine engine(image.view(), config,
                        policies::makePolicy(policy, config));
    trace::ReplayWindow window(image, sim::sec(window_sec));

    started = std::chrono::steady_clock::now();
    engine.begin();
    window.advanceTo(0);
    sim::SimTime now = 0;
    while (!engine.drained()) {
        now += sim::sec(window_sec);
        engine.stepUntil(now);
        window.advanceTo(now);
    }
    const core::RunMetrics metrics = engine.finish();
    const double replay_ms = wallMsSince(started);
    if (metrics.total() != image.requestCount())
        return 1; // a lost request would invalidate the measurement

    std::printf("{\"requests\": %llu, \"events\": %llu, "
                "\"open_ms\": %.1f, \"replay_ms\": %.1f, "
                "\"peak_rss_mb\": %lld}\n",
                static_cast<unsigned long long>(image.requestCount()),
                static_cast<unsigned long long>(engine.eventsExecuted()),
                open_ms, replay_ms,
                static_cast<long long>(exp::peakRssMb()));
    return 0;
}

/** Pull one numeric field out of the child's flat JSON line. */
double
jsonField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/**
 * Fork + exec this binary in --child mode and capture its stdout.
 * Returns false when the child failed (non-zero exit, no output).
 */
bool
runChildProcess(const std::string &image_path, std::int64_t window_sec,
                const std::string &policy, std::string &line_out)
{
#if defined(__linux__)
    int fds[2];
    if (::pipe(fds) != 0)
        return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::dup2(fds[1], 1);
        ::close(fds[0]);
        ::close(fds[1]);
        const std::string window = std::to_string(window_sec);
        const char *argv[] = {"bench_out_of_core", "--child",
                              image_path.c_str(), window.c_str(),
                              policy.c_str(), nullptr};
        ::execv("/proc/self/exe", const_cast<char *const *>(argv));
        _exit(127);
    }
    ::close(fds[1]);
    line_out.clear();
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
        line_out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
           !line_out.empty();
#else
    // Per-size RSS attribution needs process isolation (ru_maxrss is
    // monotone); without fork/exec the measurement is meaningless.
    (void)image_path;
    (void)window_sec;
    (void)policy;
    (void)line_out;
    std::cerr << "bench_out_of_core: child processes need Linux\n";
    return false;
#endif
}

} // namespace
} // namespace cidre::bench

int
main(int argc, char **argv)
{
    using namespace cidre;
    using namespace cidre::bench;
    namespace fs = std::filesystem;

    // Hidden child mode (see runChildProcess): --child <image> <window_s>
    // <policy>.
    if (argc >= 2 && std::string(argv[1]) == "--child") {
        if (argc != 5) {
            std::cerr << "bench_out_of_core --child <image.ctrb>"
                         " <window_sec> <policy>\n";
            return 2;
        }
        return runReplayChild(argv[2], std::atoll(argv[3]), argv[4]);
    }

    std::string out_path = "BENCH_out_of_core.json";
    bool smoke = false;
    bool keep_images = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            continue;
        }
        if (std::string(argv[i]) == "--smoke") {
            smoke = true;
            continue;
        }
        if (std::string(argv[i]) == "--keep-images") {
            keep_images = true;
            continue;
        }
        rest.push_back(argv[i]);
    }
    const Options options = parseOptions(
        static_cast<int>(rest.size()), rest.data(), "bench_out_of_core",
        "peak RSS and wall time of windowed streaming replay vs trace"
        " size (also: --out <json-path>, --smoke, --keep-images)");

    banner("Out-of-core replay",
           "bounded-RSS streaming over traces larger than memory");

    const std::string policy = "ttl";
    const std::int64_t window_sec = 60;
    const double base_scale = (smoke ? 0.25 : 0.9) * options.scale;
    const std::vector<std::uint64_t> multipliers =
        smoke ? std::vector<std::uint64_t>{1, 4}
              : std::vector<std::uint64_t>{2, 20, 200};

#if defined(__unix__)
    const std::string scratch_tag = std::to_string(::getpid());
#else
    const std::string scratch_tag = std::to_string(options.seed);
#endif
    const fs::path scratch = fs::temp_directory_path() /
        ("cidre_out_of_core_" + scratch_tag);
    fs::create_directories(scratch);
    const std::string base_path = (scratch / "base.ctrb").string();

    std::cerr << "[bench] generating base trace (scale " << base_scale
              << ")...\n";
    const trace::Trace base =
        trace::makeAzureLikeTrace(options.seed, base_scale);
    trace::writeTraceImageFile(base, base_path);
    std::cout << "base image: " << base.requestCount() << " requests, "
              << stats::formatFixed(
                     static_cast<double>(fs::file_size(base_path)) / 1e6, 1)
              << " MB; window " << window_sec << " s, policy " << policy
              << "\n\n";

    std::vector<ReplayRun> runs;
    stats::Table table({"requests", "image_mb", "synth_ms", "open_ms",
                        "replay_ms", "events_per_sec", "peak_rss_mb"});
    bool failed = false;
    for (const std::uint64_t k : multipliers) {
        std::string image_name = "x";
        image_name += std::to_string(k);
        image_name += ".ctrb";
        const std::string image_path = (scratch / image_name).string();

        // Stream-merge k time-shifted copies of the base image through
        // the same code path `cidre_sim synth` uses.
        std::cerr << "[bench] synthesizing x" << k << " image...\n";
        const auto synth_started = std::chrono::steady_clock::now();
        {
            const std::string copies = std::to_string(k);
            const char *synth_argv[] = {"cidre_sim",       "synth",
                                        "--out",           image_path.c_str(),
                                        "--copies",        copies.c_str(),
                                        base_path.c_str(), nullptr};
            std::ostringstream sink;
            if (cli::dispatch(7, synth_argv, sink, std::cerr) != 0) {
                std::cerr << "bench_out_of_core: synth failed for x" << k
                          << "\n";
                failed = true;
                break;
            }
        }
        ReplayRun run;
        run.synth_ms = wallMsSince(synth_started);
        run.image_mb = static_cast<double>(fs::file_size(image_path)) / 1e6;

        std::cerr << "[bench] replaying x" << k << " ("
                  << base.requestCount() * k << " requests) in a child"
                  << " process...\n";
        std::string line;
        if (!runChildProcess(image_path, window_sec, policy, line)) {
            std::cerr << "bench_out_of_core: child replay failed for x"
                      << k << "\n";
            failed = true;
            if (!keep_images)
                fs::remove(image_path);
            break;
        }
        run.requests = static_cast<std::uint64_t>(jsonField(line, "requests"));
        run.events = static_cast<std::uint64_t>(jsonField(line, "events"));
        run.open_ms = jsonField(line, "open_ms");
        run.replay_ms = jsonField(line, "replay_ms");
        run.peak_rss_mb =
            static_cast<std::int64_t>(jsonField(line, "peak_rss_mb"));
        run.events_per_sec = run.replay_ms > 0.0
            ? static_cast<double>(run.events) / (run.replay_ms / 1000.0)
            : 0.0;
        runs.push_back(run);
        table.addRow({std::to_string(run.requests),
                      stats::formatFixed(run.image_mb, 1),
                      stats::formatFixed(run.synth_ms, 0),
                      stats::formatFixed(run.open_ms, 1),
                      stats::formatFixed(run.replay_ms, 0),
                      stats::formatFixed(run.events_per_sec, 0),
                      std::to_string(run.peak_rss_mb)});
        if (!keep_images)
            fs::remove(image_path);
    }
    if (!keep_images)
        fs::remove_all(scratch);
    if (failed || runs.empty())
        return 1;

    emit(options, "out_of_core_replay", table);

    // The two headline ratios: RSS flatness (max/min peak RSS across
    // the span; ~1.0 = residency tracks the window, not the trace) and
    // wall-time linearity (largest-size wall per request over
    // smallest-size wall per request; ~1.0 = linear scaling).
    std::int64_t rss_min = runs.front().peak_rss_mb;
    std::int64_t rss_max = runs.front().peak_rss_mb;
    for (const ReplayRun &run : runs) {
        rss_min = std::min(rss_min, run.peak_rss_mb);
        rss_max = std::max(rss_max, run.peak_rss_mb);
    }
    const double rss_flatness = rss_min > 0
        ? static_cast<double>(rss_max) / static_cast<double>(rss_min)
        : 0.0;
    const ReplayRun &small = runs.front();
    const ReplayRun &large = runs.back();
    const double wall_linearity =
        (large.replay_ms / static_cast<double>(large.requests)) /
        (small.replay_ms / static_cast<double>(small.requests));
    std::cout << "peak RSS max/min across "
              << large.requests / small.requests
              << "x size span: " << stats::formatFixed(rss_flatness, 2)
              << "  wall-time per request (large/small): "
              << stats::formatFixed(wall_linearity, 2) << "\n";

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "bench_out_of_core: cannot write " << out_path
                  << "\n";
        return 1;
    }
    json.precision(1);
    json.setf(std::ios::fixed);
    json << "{\n"
         << "  \"bench\": \"bench_out_of_core\",\n"
         << "  \"build\": \"" << buildInfo() << "\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"policy\": \"" << policy << "\",\n"
         << "  \"window_sec\": " << window_sec << ",\n"
         << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ReplayRun &run = runs[i];
        json << "    {\"requests\": " << run.requests
             << ", \"image_mb\": " << run.image_mb
             << ", \"synth_ms\": " << run.synth_ms
             << ", \"open_ms\": " << run.open_ms
             << ", \"replay_ms\": " << run.replay_ms
             << ", \"events\": " << run.events
             << ", \"events_per_sec\": " << run.events_per_sec
             << ", \"peak_rss_mb\": " << run.peak_rss_mb << "}"
             << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json.precision(3);
    json << "  ],\n"
         << "  \"rss_flatness\": " << rss_flatness << ",\n"
         << "  \"wall_linearity\": " << wall_linearity << "\n"
         << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
