#include "event_queue.hh"

#include "sim/checkpoint.hh"

#include "check.hh"
#include "logging.hh"

namespace softwatt
{

EventQueue::EventId
EventQueue::schedule(Tick when, Callback cb)
{
    SW_CHECK(when >= currentTick,
             msg() << "event scheduled in the past: " << when << " < "
                   << currentTick);
    EventId id = nextId++;
    heap.push(Entry{when, id, std::move(cb)});
    ++liveCount;
    return id;
}

EventQueue::EventId
EventQueue::scheduleIn(Cycles delta, Callback cb)
{
    return schedule(currentTick + delta, std::move(cb));
}

void
EventQueue::cancel(EventId id)
{
    // Lazy deletion: the entry is skipped when it reaches the top.
    if (cancelled.insert(id).second && liveCount > 0)
        --liveCount;
}

void
EventQueue::skipCancelled()
{
    while (!heap.empty()) {
        auto it = cancelled.find(heap.top().id);
        if (it == cancelled.end())
            return;
        cancelled.erase(it);
        heap.pop();
    }
}

Tick
EventQueue::nextEventTick() const
{
    // The heap may hold cancelled entries above live ones; walk a copy
    // only when cancellations are pending (rare).
    auto *self = const_cast<EventQueue *>(this);
    self->skipCancelled();
    return heap.empty() ? maxTick : heap.top().when;
}

void
EventQueue::advanceToSlow(Tick target)
{
    SW_CHECK(target >= currentTick,
             "advanceTo: time would move backwards");
    while (true) {
        skipCancelled();
        if (heap.empty() || heap.top().when > target)
            break;
        Entry entry = heap.top();
        heap.pop();
        --liveCount;
        currentTick = entry.when;
        ++executedCount;
        entry.cb();
    }
    currentTick = target;
}

void
EventQueue::saveState(ChunkWriter &out) const
{
    out.u64(currentTick);
    out.u64(nextId);
    out.u64(executedCount);
}

void
EventQueue::loadState(ChunkReader &in)
{
    // Checkpoints are taken at quiescent points where every live
    // event is owned by a component that re-registers it during its
    // own restore; the heap must be empty here.
    SW_CHECK(liveCount == 0 && heap.empty(),
             "EventQueue::loadState on a non-empty queue");
    currentTick = in.u64();
    nextId = in.u64();
    executedCount = in.u64();
}

void
EventQueue::restoreEvent(Tick when, EventId id, Callback cb)
{
    SW_CHECK(when >= currentTick,
             msg() << "restoreEvent: event in the past: " << when
                   << " < " << currentTick);
    SW_CHECK(id < nextId,
             msg() << "restoreEvent: id " << id << " does not "
                   << "predate the saved id counter " << nextId);
    heap.push(Entry{when, id, std::move(cb)});
    ++liveCount;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (true) {
        skipCancelled();
        if (heap.empty() || heap.top().when > limit)
            break;
        Entry entry = heap.top();
        heap.pop();
        --liveCount;
        currentTick = entry.when;
        ++executedCount;
        entry.cb();
    }
    if (limit != maxTick && limit > currentTick)
        currentTick = limit;
    return currentTick;
}

} // namespace softwatt
