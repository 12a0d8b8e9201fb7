/**
 * @file
 * Tests for the search drivers: the grid enumerates the full space
 * exactly once, random sampling is seeded and distinct, annealing is
 * bit-reproducible given the same seed and reported objectives, and
 * every driver respects the ask-tell protocol.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "tune/search.h"
#include "tune/space.h"

namespace cidre::tune {
namespace {

const ParameterSpace &
sampleSpace()
{
    static const ParameterSpace space =
        ParameterSpace::parse("ttl-sec=30:600:30,cache-gb=10|20|40");
    return space;
}

/** Feed a deterministic synthetic objective back for each point. */
std::vector<Observation>
syntheticObservations(const ParameterSpace &space,
                      const std::vector<Point> &batch)
{
    std::vector<Observation> observations(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        observations[i].point = batch[i];
        observations[i].id = space.pointId(batch[i]);
        // Any smooth deterministic function of the point works; a 1-D
        // point has no second coordinate.
        const double x = static_cast<double>(batch[i][0] + 1);
        const double y = batch[i].size() > 1
            ? static_cast<double>(batch[i][1] + 1)
            : 1.0;
        observations[i].objectives = {x * 3.0 + y, 100.0 / (x + y)};
    }
    return observations;
}

/** Run a driver to exhaustion, returning every proposed point id. */
std::vector<std::uint64_t>
drain(SearchDriver &driver, const ParameterSpace &space)
{
    std::vector<std::uint64_t> proposed;
    for (;;) {
        const std::vector<Point> batch = driver.nextBatch();
        if (batch.empty())
            break;
        for (const Point &point : batch)
            proposed.push_back(space.pointId(point));
        driver.report(syntheticObservations(space, batch));
    }
    return proposed;
}

TEST(GridDriver, EnumeratesEveryPointExactlyOnce)
{
    const ParameterSpace &space = sampleSpace();
    const auto driver = makeDriver("grid", space, 0, 1);
    const std::vector<std::uint64_t> proposed = drain(*driver, space);
    EXPECT_EQ(proposed.size(), space.pointCount());
    EXPECT_EQ(std::set<std::uint64_t>(proposed.begin(), proposed.end())
                  .size(),
              space.pointCount());
}

TEST(RandomDriver, SeededDistinctAndWithinBudget)
{
    const ParameterSpace &space = sampleSpace();
    const auto first = makeDriver("random", space, 12, 99);
    const auto second = makeDriver("random", space, 12, 99);
    const std::vector<std::uint64_t> a = drain(*first, space);
    const std::vector<std::uint64_t> b = drain(*second, space);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), 12u);
    EXPECT_GE(a.size(), 1u);
    EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(),
              a.size());

    const auto other_seed = makeDriver("random", space, 12, 100);
    EXPECT_NE(drain(*other_seed, space), a);
}

TEST(RandomDriver, BudgetCoveringTheSpaceFindsEveryPoint)
{
    // With replacement-dedup and a budget far above the space size the
    // sample must still stay within the space.
    const ParameterSpace space = ParameterSpace::parse("cache-gb=10|20");
    const auto driver = makeDriver("random", space, 64, 7);
    const std::vector<std::uint64_t> proposed = drain(*driver, space);
    EXPECT_LE(proposed.size(), space.pointCount());
}

TEST(AnnealDriver, SameSeedSameObjectivesSameTrajectory)
{
    const ParameterSpace &space = sampleSpace();
    const auto first = makeDriver("anneal", space, 24, 5);
    const auto second = makeDriver("anneal", space, 24, 5);
    const std::vector<std::uint64_t> a = drain(*first, space);
    EXPECT_EQ(a, drain(*second, space));

    const auto other_seed = makeDriver("anneal", space, 24, 6);
    EXPECT_NE(drain(*other_seed, space), a);
}

TEST(AnnealDriver, StaysWithinBudgetAndProposesValidPoints)
{
    const ParameterSpace &space = sampleSpace();
    const auto driver = makeDriver("anneal", space, 17, 3);
    std::size_t proposals = 0;
    for (;;) {
        const std::vector<Point> batch = driver->nextBatch();
        if (batch.empty())
            break;
        for (const Point &point : batch) {
            ASSERT_EQ(point.size(), space.knobs().size());
            for (std::size_t k = 0; k < point.size(); ++k)
                ASSERT_LT(point[k], space.knobs()[k].values.size());
        }
        proposals += batch.size();
        driver->report(syntheticObservations(space, batch));
    }
    EXPECT_LE(proposals, 17u);
    EXPECT_GE(proposals, 1u);
}

TEST(MakeDriver, RejectsUnknownNamesAndZeroBudgets)
{
    const ParameterSpace &space = sampleSpace();
    EXPECT_THROW(makeDriver("gradient", space, 8, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeDriver("random", space, 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeDriver("anneal", space, 0, 1),
                 std::invalid_argument);
    EXPECT_EQ(std::string(makeDriver("grid", space, 0, 1)->name()),
              "grid");
}

TEST(DriverProtocol, ReportSizeMismatchIsAnError)
{
    const ParameterSpace &space = sampleSpace();
    const auto driver = makeDriver("anneal", space, 8, 1);
    const std::vector<Point> batch = driver->nextBatch();
    ASSERT_FALSE(batch.empty());
    std::vector<Observation> short_report =
        syntheticObservations(space, batch);
    short_report.pop_back();
    EXPECT_THROW(driver->report(short_report), std::logic_error);
}

} // namespace
} // namespace cidre::tune
