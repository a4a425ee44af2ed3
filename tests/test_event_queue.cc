/**
 * @file
 * Unit tests for the simulation event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace softwatt;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), maxTick);
}

TEST(EventQueue, RunsEventsInTimestampOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, SameTickEventsRunInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.advanceTo(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, AdvanceToStopsAtTarget)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.advanceTo(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.nextEventTick(), 20u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, [&] { ++fired; });
    q.schedule(11, [&] { ++fired; });
    q.cancel(id);
    q.runUntil(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    q.cancel(id);
    q.cancel(id);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    q.advanceTo(50);
    Tick fired_at = 0;
    q.scheduleIn(25, [&] { fired_at = q.now(); });
    q.runUntil(1000);
    EXPECT_EQ(fired_at, 75u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Tick> fire_times;
    std::function<void()> rearm = [&] {
        fire_times.push_back(q.now());
        if (fire_times.size() < 4)
            q.scheduleIn(10, rearm);
    };
    q.schedule(10, rearm);
    q.runUntil(1000);
    EXPECT_EQ(fire_times,
              (std::vector<Tick>{10, 20, 30, 40}));
}

TEST(EventQueue, NextEventTickSkipsCancelled)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextEventTick(), 20u);
}

TEST(EventQueue, CancelledTopLaterThanTargetKeepsOrder)
{
    EventQueue q;
    std::vector<int> order;
    auto late = q.schedule(50, [&] { order.push_back(9); });
    q.cancel(late);
    EXPECT_TRUE(q.empty());

    // The cancelled entry still sits on top of the heap, later than
    // the target: time moves and nothing runs.
    q.advanceTo(10);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_TRUE(order.empty());

    // Earlier live events scheduled under it run in (tick, id) order.
    q.schedule(30, [&] { order.push_back(2); });
    q.schedule(20, [&] { order.push_back(1); });
    q.schedule(30, [&] { order.push_back(3); });
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.nextEventTick(), 20u);
    q.advanceTo(25);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(q.nextEventTick(), 30u);
    q.advanceTo(60);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 60u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), maxTick);
    EXPECT_EQ(q.eventsExecuted(), 3u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(Tick(i + 1), [] {});
    q.runUntil(100);
    EXPECT_EQ(q.eventsExecuted(), 5u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.advanceTo(100);
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueueDeath, AdvancingBackwardsPanics)
{
    EventQueue q;
    q.advanceTo(100);
    EXPECT_DEATH(q.advanceTo(50), "backwards");
}
