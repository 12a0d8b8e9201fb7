/**
 * @file
 * Property tests of the simulation substrate: the event queue against a
 * reference scheduler, and statistical checks on the distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/distributions.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/serialize.h"

namespace cidre::sim {
namespace {

class SeededSimTest : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng() const { return Rng(static_cast<std::uint64_t>(GetParam())); }
};

TEST_P(SeededSimTest, EventQueueMatchesReferenceScheduler)
{
    Rng gen = rng();
    EventQueue queue;

    // Reference model: (time, sequence) pairs in schedule order.  Pops
    // interleave with scheduling, and every new event lies at or after
    // the clock, so the pop order is the stable sort by time.
    struct Planned
    {
        SimTime when;
        int label;
    };
    std::vector<Planned> planned;
    std::vector<int> executed;
    const auto popOne = [&] {
        executed.push_back(static_cast<int>(queue.pop().b));
    };

    for (int i = 0; i < 500; ++i) {
        Planned p;
        p.when = queue.now() + static_cast<SimTime>(gen.below(100000));
        p.label = i;
        queue.schedule(p.when, 1, 0, static_cast<std::uint64_t>(i));
        planned.push_back(p);
        if (gen.chance(0.2))
            popOne();
    }
    while (!queue.empty())
        popOne();

    std::vector<int> expected_order;
    for (const auto &p : planned)
        expected_order.push_back(p.label);
    std::stable_sort(expected_order.begin(), expected_order.end(),
                     [&](int a, int b) {
                         return planned[static_cast<std::size_t>(a)].when <
                             planned[static_cast<std::size_t>(b)].when;
                     });
    EXPECT_EQ(executed, expected_order);
}

TEST_P(SeededSimTest, DeepQueueWithTiesAndLanePopsInWhenSeqOrder)
{
    // Thousands of pending events over a few hundred distinct times, so
    // the heap is deep and ties are the rule; the reserved lane holds an
    // event now and then, and mid-stream the queue is checkpointed into
    // a fresh one, which carries on.  Every pop must be the reference's
    // earliest (when, seq), and b (set to seq) must come back with it.
    Rng gen = rng();
    auto queue = std::make_unique<EventQueue>();
    std::set<std::pair<SimTime, std::uint64_t>> reference;
    std::uint64_t next_seq = 1; // the queue's numbering, mirrored
    std::uint64_t reserved = 0; // a reservation not yet scheduled
    bool lane_full = false;
    std::uint64_t lane_seq = 0;

    const auto scheduleOne = [&] {
        const SimTime when = queue->now() +
            static_cast<SimTime>(gen.below(300));
        queue->schedule(when, 1, 0, next_seq);
        reference.emplace(when, next_seq++);
    };
    const auto popOne = [&] {
        ASSERT_FALSE(reference.empty());
        const Event event = queue->pop();
        const auto expected = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(event.when, expected.first);
        ASSERT_EQ(event.seq, expected.second);
        ASSERT_EQ(event.b, event.seq);
        if (lane_full && event.seq == lane_seq)
            lane_full = false;
    };

    for (int i = 0; i < 6000; ++i)
        scheduleOne();
    for (int step = 0; step < 30000; ++step) {
        if (reserved == 0 && !lane_full && gen.chance(0.05)) {
            reserved = queue->reserveSeq();
            ASSERT_EQ(reserved, next_seq++);
        } else if (reserved != 0 && gen.chance(0.3)) {
            const SimTime when = queue->now() +
                static_cast<SimTime>(gen.below(300));
            queue->scheduleReserved(when, reserved, 1, 0, reserved);
            reference.emplace(when, reserved);
            lane_full = true;
            lane_seq = reserved;
            reserved = 0;
        }
        // Keep at least 5,000 pending: schedule as many as pop.
        const int pops = 1 + static_cast<int>(gen.below(3));
        for (int k = 0; k < pops; ++k) {
            popOne();
            if (HasFatalFailure())
                return;
            scheduleOne();
        }
        ASSERT_GE(reference.size(), 5000u);

        if (step == 15000) {
            StateWriter writer;
            queue->saveState(writer);
            const std::vector<std::byte> bytes = writer.release();
            queue = std::make_unique<EventQueue>();
            StateReader reader(bytes);
            queue->loadState(reader);
            lane_full = false; // a restored lane starts empty
        }
    }
    while (!reference.empty()) {
        popOne();
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(queue->empty());
}

TEST_P(SeededSimTest, ExponentialMemoryless)
{
    // P(X > a + b | X > a) == P(X > b): compare empirical tails.
    Rng gen = rng();
    const double rate = 2.0;
    int beyond_a = 0;
    int beyond_ab = 0;
    int beyond_b = 0;
    const int n = 200000;
    const double a = 0.5;
    const double b = 0.4;
    for (int i = 0; i < n; ++i) {
        const double x = sampleExponential(gen, rate);
        beyond_a += x > a;
        beyond_ab += x > a + b;
        beyond_b += x > b;
    }
    const double conditional =
        static_cast<double>(beyond_ab) / static_cast<double>(beyond_a);
    const double unconditional =
        static_cast<double>(beyond_b) / static_cast<double>(n);
    EXPECT_NEAR(conditional, unconditional, 0.02);
}

TEST_P(SeededSimTest, BelowIsUniformChiSquare)
{
    Rng gen = rng();
    const std::uint64_t buckets = 16;
    const int n = 160000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < n; ++i)
        ++counts[gen.below(buckets)];
    const double expected = static_cast<double>(n) / buckets;
    double chi2 = 0.0;
    for (const int c : counts) {
        const double d = static_cast<double>(c) - expected;
        chi2 += d * d / expected;
    }
    // 15 degrees of freedom: chi2 < 37.7 at p = 0.001.
    EXPECT_LT(chi2, 37.7);
}

TEST_P(SeededSimTest, BoundedParetoMeanMatchesFormula)
{
    Rng gen = rng();
    const double alpha = 1.3;
    const double lo = 2.0;
    const double hi = 500.0;
    double sum = 0.0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        sum += sampleBoundedPareto(gen, alpha, lo, hi);
    const double analytic = boundedParetoMean(alpha, lo, hi);
    EXPECT_NEAR(sum / n, analytic, analytic * 0.03);
}

TEST_P(SeededSimTest, ZipfSampleMatchesMassEverywhere)
{
    Rng gen = rng();
    ZipfSampler zipf(40, 1.1);
    std::vector<int> counts(40, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(gen)];
    for (std::size_t r = 0; r < 40; ++r) {
        const double empirical =
            static_cast<double>(counts[r]) / static_cast<double>(n);
        EXPECT_NEAR(empirical, zipf.massOf(r),
                    0.01 + zipf.massOf(r) * 0.15)
            << "rank " << r;
    }
}

TEST(BoundedParetoMean, AlphaOneLimit)
{
    // The alpha→1 special case must agree with nearby alphas.
    const double near = boundedParetoMean(1.0 + 1e-7, 2.0, 600.0);
    const double at = boundedParetoMean(1.0, 2.0, 600.0);
    EXPECT_NEAR(at, near, near * 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededSimTest, ::testing::Range(1, 5));

} // namespace
} // namespace cidre::sim
