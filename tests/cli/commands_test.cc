/**
 * @file
 * End-to-end tests of the cidre_sim subcommands (through the dispatch
 * layer, with captured output).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "tests/temp_file.h"

namespace cidre::cli {
namespace {

struct RunResult
{
    int status;
    std::string out;
    std::string err;
};

RunResult
invoke(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"cidre_sim"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int status = dispatch(static_cast<int>(argv.size()),
                                argv.data(), out, err);
    return {status, out.str(), err.str()};
}

TEST(CidreSim, NoCommandPrintsUsage)
{
    const RunResult r = invoke({});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CidreSim, UnknownCommandPrintsUsage)
{
    const RunResult r = invoke({"frobnicate"});
    EXPECT_EQ(r.status, 2);
}

TEST(CidreSim, HelpPerCommand)
{
    const RunResult r = invoke({"run", "--help"});
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("--policy"), std::string::npos);
    EXPECT_NE(r.out.find("--cache-gb"), std::string::npos);
}

TEST(CidreSim, GenerateRunAnalyzeRoundTrip)
{
    const test::TempFile csv("sim_test_trace.csv");
    const std::string &path = csv.path();
    const RunResult gen = invoke({"generate", "--out", path.c_str(),
                                  "--kind", "fc", "--scale", "0.03",
                                  "--seed", "5"});
    ASSERT_EQ(gen.status, 0) << gen.err;
    EXPECT_NE(gen.out.find("wrote"), std::string::npos);

    const RunResult run = invoke({"run", "--trace", path.c_str(),
                                  "--policy", "cidre", "--cache-gb",
                                  "20"});
    ASSERT_EQ(run.status, 0) << run.err;
    EXPECT_NE(run.out.find("avg overhead ratio %"), std::string::npos);
    EXPECT_NE(run.out.find("cold start %"), std::string::npos);

    const RunResult analyze =
        invoke({"analyze", "--trace", path.c_str()});
    ASSERT_EQ(analyze.status, 0) << analyze.err;
    EXPECT_NE(analyze.out.find("cold/exec ratio"), std::string::npos);
}

TEST(CidreSim, ConvertedImageRunsIdentically)
{
    const test::TempFile csv_file("sim_convert.csv");
    const test::TempFile ctrb_file("sim_convert.ctrb");
    const std::string &csv = csv_file.path();
    const std::string &ctrb = ctrb_file.path();
    const RunResult gen = invoke({"generate", "--out", csv.c_str(),
                                  "--kind", "azure", "--scale", "0.03",
                                  "--seed", "9"});
    ASSERT_EQ(gen.status, 0) << gen.err;

    const RunResult convert =
        invoke({"convert", csv.c_str(), ctrb.c_str()});
    ASSERT_EQ(convert.status, 0) << convert.err;
    EXPECT_NE(convert.out.find("csv -> ctrb"), std::string::npos);

    // --trace auto-detects the format by content; both substrates must
    // produce byte-identical reports.
    const RunResult from_csv = invoke({"run", "--trace", csv.c_str(),
                                       "--policy", "cidre",
                                       "--cache-gb", "20"});
    ASSERT_EQ(from_csv.status, 0) << from_csv.err;
    const RunResult from_image = invoke({"run", "--trace", ctrb.c_str(),
                                         "--policy", "cidre",
                                         "--cache-gb", "20"});
    ASSERT_EQ(from_image.status, 0) << from_image.err;
    EXPECT_EQ(from_image.out, from_csv.out);

    // And back: ctrb -> csv must parse and simulate identically too.
    const test::TempFile csv2_file("sim_convert_back.csv");
    const std::string &csv2 = csv2_file.path();
    const RunResult back = invoke({"convert", ctrb.c_str(), csv2.c_str()});
    ASSERT_EQ(back.status, 0) << back.err;
    EXPECT_NE(back.out.find("ctrb -> csv"), std::string::npos);
    const RunResult from_csv2 = invoke({"run", "--trace", csv2.c_str(),
                                        "--policy", "cidre",
                                        "--cache-gb", "20"});
    ASSERT_EQ(from_csv2.status, 0) << from_csv2.err;
    EXPECT_EQ(from_csv2.out, from_csv.out);
}

TEST(CidreSim, GenerateWritesImageWhenAsked)
{
    const test::TempFile file("sim_generated.ctrb");
    const std::string &ctrb = file.path();
    const RunResult gen = invoke({"generate", "--out", ctrb.c_str(),
                                  "--kind", "fc", "--scale", "0.02",
                                  "--seed", "3"});
    ASSERT_EQ(gen.status, 0) << gen.err;
    EXPECT_NE(gen.out.find("wrote"), std::string::npos);
    const RunResult analyze = invoke({"analyze", "--trace", ctrb.c_str()});
    EXPECT_EQ(analyze.status, 0) << analyze.err;
}

TEST(CidreSim, ConvertErrorsAreReported)
{
    const RunResult missing_args = invoke({"convert", "only-one"});
    EXPECT_EQ(missing_args.status, 2);
    EXPECT_NE(missing_args.err.find("two paths"), std::string::npos);

    const RunResult missing_file = invoke(
        {"convert", "/nonexistent/in.csv", "/nonexistent/out.ctrb"});
    EXPECT_EQ(missing_file.status, 2);

    // A directory is a read error, not an empty trace: nothing is
    // published.
    const test::TempFile dir("sim_convert_dir");
    const test::TempFile ctrb("sim_convert_dir.ctrb");
    ASSERT_TRUE(std::filesystem::create_directory(dir.path()));
    const RunResult from_dir = invoke({"convert", dir.path(), ctrb.path()});
    EXPECT_EQ(from_dir.status, 2);
    EXPECT_NE(from_dir.err.find("read error"), std::string::npos)
        << from_dir.err;
    EXPECT_FALSE(std::filesystem::exists(ctrb.path()));
}

TEST(CidreSim, CompareListsEveryPolicy)
{
    const RunResult r = invoke({"compare", "--kind", "azure", "--scale",
                                "0.03", "--policies",
                                "cidre,faascache,ttl", "--cache-gb",
                                "10"});
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.out.find("cidre"), std::string::npos);
    EXPECT_NE(r.out.find("faascache"), std::string::npos);
    EXPECT_NE(r.out.find("ttl"), std::string::npos);
}

TEST(CidreSim, RunWithSyntheticKnobs)
{
    const RunResult r = invoke({"run", "--kind", "azure", "--scale",
                                "0.03", "--policy", "cidre-bss",
                                "--cache-gb", "10", "--workers", "2",
                                "--threads", "2", "--iat", "1.5",
                                "--exec-scale", "1.2", "--window-min",
                                "5"});
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.out.find("policy: cidre-bss"), std::string::npos);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(CidreSim, ResumedRunMatchesUninterruptedRunByteForByte)
{
    // Checkpoint periodically, stop mid-trace, resume: the resumed
    // metrics JSON must equal the uninterrupted run's byte for byte.
    // A single cell and a sharded cluster share one checkpoint path.
    const std::vector<std::vector<std::string>> shapes = {
        {"--cells", "1"},
        {"--cells", "2", "--shards", "2"},
    };
    for (const std::vector<std::string> &shape : shapes) {
        const test::TempFile ckpt_file("sim_resume.ckpt");
        const test::TempFile full_file("sim_resume_full.json");
        const test::TempFile resumed_file("sim_resume_resumed.json");
        const std::string &ckpt = ckpt_file.path();
        const std::string &full_json = full_file.path();
        const std::string &resumed_json = resumed_file.path();
        const auto runWith = [&shape](std::vector<std::string> extra) {
            std::vector<std::string> args = {
                "run", "--kind", "azure", "--scale", "0.03", "--seed",
                "5", "--cache-gb", "20", "--policy", "cidre"};
            args.insert(args.end(), shape.begin(), shape.end());
            args.insert(args.end(), extra.begin(), extra.end());
            return invoke(args);
        };

        const RunResult full = runWith({"--json", full_json});
        ASSERT_EQ(full.status, 0) << full.err;
        const RunResult stopped =
            runWith({"--checkpoint", ckpt, "--checkpoint-every-sec", "300",
                     "--stop-at-sec", "900"});
        ASSERT_EQ(stopped.status, 0) << stopped.err;
        EXPECT_NE(stopped.out.find("stopped at 900 s"), std::string::npos)
            << stopped.out;
        const RunResult resumed =
            runWith({"--resume-from", ckpt, "--json", resumed_json});
        ASSERT_EQ(resumed.status, 0) << resumed.err;

        const std::string expected = readFile(full_json);
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(readFile(resumed_json), expected) << "shape " << shape[1];
        EXPECT_EQ(resumed.out, full.out) << "shape " << shape[1];
    }
}

/**
 * Write the two-burst trace to @p path: four requests of 512 MB
 * function 0 at 0-3 ms, cold-started in the first 10 s, and four more
 * at 30 s that reuse those containers.  @p late_cold adds a second
 * function with two requests at 30 s, whose cold starts land in the
 * fourth bucket.
 */
void
writeTwoBurstTrace(const std::string &path, bool late_cold)
{
    std::ofstream out(path);
    out << "F,0,a,512,100000,python,20000\n";
    if (late_cold)
        out << "F,1,b,512,100000,python,20000\n";
    for (int burst = 0; burst < 2; ++burst) {
        for (int i = 0; i < 4; ++i)
            out << "R,0," << burst * 30000000 + i * 1000 << ",20000\n";
    }
    if (late_cold)
        out << "R,1,30004000,20000\nR,1,30005000,20000\n";
}

/** The sparkline after @p label in a `run --timeline` report. */
std::string
timelineRow(const std::string &out, const std::string &label)
{
    const std::size_t at = out.find("  " + label + " ");
    if (at == std::string::npos)
        return "<no " + label + " row>";
    const std::size_t from = out.find_first_not_of(' ', at + label.size() + 2);
    return out.substr(from, out.find('\n', from) - from);
}

TEST(CidreSim, TimelineSamplesEveryTenSecondsOfTheWholeCluster)
{
    const test::TempFile trace_file("sim_timeline.csv");
    const std::string &trace = trace_file.path();
    writeTwoBurstTrace(trace, false);
    const auto run = [](const std::string &path,
                        std::vector<std::string> extra) {
        std::vector<std::string> args = {"run", "--trace", path,
                                         "--policy", "ttl", "--workers", "2",
                                         "--cache-gb", "8", "--timeline"};
        args.insert(args.end(), extra.begin(), extra.end());
        const RunResult r = invoke(args);
        EXPECT_EQ(r.status, 0) << r.err;
        return r.out;
    };

    // Marks at 10, 20, 30 and 40 s.  All four cold starts fall before
    // the first; memory is read at each mark, so it stays full through
    // the idle gap between the bursts.
    const std::string full = run(trace, {});
    EXPECT_EQ(timelineRow(full, "cold starts"), "█▁▁▁");
    EXPECT_EQ(timelineRow(full, "memory MB"), "████");
    EXPECT_EQ(timelineRow(full, "delayed warm"), "▁▁▁▁");

    // A resumed run's rows start at the resume point: marks 30 and 40.
    const test::TempFile ckpt_file("sim_timeline.ckpt");
    const std::string &ckpt = ckpt_file.path();
    run(trace, {"--checkpoint", ckpt, "--stop-at-sec", "20"});
    const std::string resumed = run(trace, {"--resume-from", ckpt});
    EXPECT_EQ(timelineRow(resumed, "cold starts"), "▁▁");
    EXPECT_EQ(timelineRow(resumed, "memory MB"), "██");

    // Every row sums all cells.  With two cells, function b's two cold
    // starts at 30 s sit in cell 1: cell 0 alone would draw "█▁▁▁" and
    // a flat memory row.  Any --shards count prints the same report.
    const test::TempFile late_file("sim_timeline_late.csv");
    const std::string &late = late_file.path();
    writeTwoBurstTrace(late, true);
    const std::string one_cell = run(late, {});
    EXPECT_EQ(timelineRow(one_cell, "cold starts"), "█▁▁▄");
    EXPECT_EQ(timelineRow(one_cell, "memory MB"), "▆▆▆█");
    const std::string cells = run(late, {"--cells", "2", "--shards", "1"});
    EXPECT_EQ(run(late, {"--cells", "2", "--shards", "2"}), cells);
    for (const char *label : {"memory MB", "cold starts", "delayed warm"}) {
        EXPECT_EQ(timelineRow(cells, label), timelineRow(one_cell, label))
            << label;
    }
}

TEST(CidreSim, TrialsOverOneTraceFileAreRejected)
{
    // Nothing in the engine draws from the per-trial seed, so N trials
    // of one trace file would be N copies of the same simulation.
    const test::TempFile csv("sim_trials_trace.csv");
    const std::string &path = csv.path();
    const RunResult gen = invoke({"generate", "--out", path, "--kind",
                                  "azure", "--scale", "0.02", "--seed",
                                  "4"});
    ASSERT_EQ(gen.status, 0) << gen.err;

    const RunResult run = invoke({"run", "--trace", path, "--cache-gb",
                                  "20", "--trials", "2"});
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find("--trials > 1 needs a synthetic workload"),
              std::string::npos)
        << run.err;

    const RunResult compare =
        invoke({"compare", "--trace", path, "--cache-gb", "20",
                "--policies", "cidre,ttl", "--trials", "2"});
    EXPECT_EQ(compare.status, 2);
    EXPECT_NE(compare.err.find("--trials > 1 needs a synthetic workload"),
              std::string::npos)
        << compare.err;

    // One trial of the same file still runs.
    EXPECT_EQ(invoke({"run", "--trace", path, "--cache-gb", "20"}).status,
              0);
}

TEST(CidreSim, LiveReportsAnAdmissionErrorLikeRun)
{
    // The second request's exec time overflows the simulated horizon, so
    // the engine's intake throws on it: run fails as it schedules the
    // arrival, live as it admits it, while the producer is still running.
    const test::TempFile csv("sim_overflow_trace.csv");
    {
        std::ofstream out(csv.path());
        out << "F,0,fn0,128,1000,python,500\n"
               "R,0,10,20\n"
               "R,0,20,9223372036854775807\n"
               "R,0,30,20\n";
    }
    const std::string message =
        "Engine: request 1: arrival + exec exceeds the simulated time "
        "horizon";
    for (const std::string command : {"run", "live"}) {
        const RunResult r = invoke({command, "--trace", csv.path()});
        EXPECT_EQ(r.status, 2) << command;
        EXPECT_NE(r.err.find(message), std::string::npos)
            << command << ": " << r.err;
    }

    // With many rows behind the bad one and a two-slot ring, the pacer
    // is blocked on the full ring when the admission throws.
    const test::TempFile long_csv("sim_overflow_long_trace.csv");
    {
        std::ofstream out(long_csv.path());
        out << "F,0,fn0,128,1000,python,500\n"
               "R,0,10,20\n"
               "R,0,20,9223372036854775807\n";
        for (int i = 0; i < 5000; ++i)
            out << "R,0," << 30 + i << ",20\n";
    }
    const RunResult blocked = invoke(
        {"live", "--trace", long_csv.path(), "--ring-capacity", "2"});
    EXPECT_EQ(blocked.status, 2);
    EXPECT_NE(blocked.err.find(message), std::string::npos) << blocked.err;

    // The open-loop producers: every exec time overflows the horizon.
    const RunResult open_loop = invoke(
        {"live", "--trace", long_csv.path(), "--open-loop", "--producers",
         "2", "--open-loop-requests", "20000", "--open-loop-exec-ms",
         "5000000000000000", "--ring-capacity", "2"});
    EXPECT_EQ(open_loop.status, 2);
    EXPECT_NE(open_loop.err.find("Engine: request 0: arrival + exec "
                                 "exceeds the simulated time horizon"),
              std::string::npos)
        << open_loop.err;
}

TEST(CidreSim, ErrorsAreReported)
{
    const RunResult bad_kind =
        invoke({"run", "--kind", "aws", "--scale", "0.01"});
    EXPECT_EQ(bad_kind.status, 2);
    EXPECT_NE(bad_kind.err.find("azure or fc"), std::string::npos);

    const RunResult bad_option = invoke({"run", "--nope", "1"});
    EXPECT_EQ(bad_option.status, 2);
    EXPECT_NE(bad_option.err.find("unknown option"), std::string::npos);

    const RunResult no_out = invoke({"generate", "--kind", "azure"});
    EXPECT_EQ(no_out.status, 2);
    EXPECT_NE(no_out.err.find("--out"), std::string::npos);

    const RunResult bad_policy =
        invoke({"run", "--policy", "bogus", "--scale", "0.01"});
    EXPECT_EQ(bad_policy.status, 2);
    EXPECT_NE(bad_policy.err.find("unknown policy"), std::string::npos);
}

} // namespace
} // namespace cidre::cli
