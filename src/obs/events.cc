#include "events.h"

#include <algorithm>

#include "obs/export.h"

namespace sosim::obs {

namespace {

thread_local ThreadContext t_context;

Event
fromData(const EventData &d)
{
    Event e;
    e.kind = d.kind;
    e.code = d.code;
    e.a = d.a;
    e.b = d.b;
    e.c = d.c;
    e.d = d.d;
    e.x = d.x;
    e.y = d.y;
    e.z = d.z;
    return e;
}

} // namespace

ThreadContext &
threadContext()
{
    return t_context;
}

EventRecorder &
EventRecorder::instance()
{
    static EventRecorder recorder;
    return recorder;
}

void
EventRecorder::setEnabled(bool on)
{
    if (on) {
        steadyEpoch_ = std::chrono::steady_clock::now();
        wallEpoch_ = utcTimestamp();
    }
    enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t
EventRecorder::nextSeqLocal() noexcept
{
    // One shared fetch_add per kSeqBatch events instead of one per
    // event: with every pool worker emitting (the remap pair scan),
    // a per-event RMW ping-pongs the sequence cache line between
    // cores and alone blows the recorder's 5% end-to-end budget.
    // The generation check discards cached blocks after reset()
    // rewinds the counter, so replays restart from seq 1.
    constexpr std::uint64_t kSeqBatch = 256;
    struct Cache {
        std::uint64_t next = 0;
        std::uint64_t end = 0;
        std::uint64_t generation = ~0ULL;
    };
    thread_local Cache cache;
    const std::uint64_t gen =
        seqGeneration_.load(std::memory_order_relaxed);
    if (cache.next == cache.end || cache.generation != gen) {
        cache.next =
            nextSeq_.fetch_add(kSeqBatch, std::memory_order_relaxed);
        cache.end = cache.next + kSeqBatch;
        cache.generation = gen;
    }
    return cache.next++;
}

std::uint64_t
EventRecorder::store(Event e, std::uint64_t steady_nanos) noexcept
{
    e.seq = nextSeqLocal();
    e.parent = t_context.scope;
    e.thread = static_cast<std::uint16_t>(threadShard());
    if (fakeTimeActive()) {
        // Synthetic, sequence-derived time keeps journal goldens
        // byte-stable under fake time (see obs/export.h).
        e.steadyNanos = e.seq * 1000;
    } else if (steady_nanos != kStampNow) {
        e.steadyNanos = steady_nanos;
    } else {
        e.steadyNanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - steadyEpoch_)
                .count());
    }

    Shard &shard = shards_[threadShard()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.ring.size() < kCapacity) {
        // Grow lazily toward capacity; idle shards stay empty.
        shard.ring.push_back(e);
        shard.head = shard.ring.size() % kCapacity;
    } else {
        // Full: overwrite the oldest buffered event and count the drop.
        ++shard.dropped;
        shard.ring[shard.head] = e;
        shard.head = (shard.head + 1) % kCapacity;
    }
    ++shard.recorded;
    return e.seq;
}

std::uint64_t
EventRecorder::record(const EventData &d,
                      std::uint64_t steady_nanos) noexcept
{
    if (!enabled())
        return 0;
    Event e = fromData(d);
    if (!d.label.empty())
        e.name = internLabel(d.label);
    return store(e, steady_nanos);
}

std::uint64_t
EventRecorder::dropped() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.dropped;
    }
    return total;
}

std::uint64_t
EventRecorder::recorded() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.recorded;
    }
    return total;
}

EventSnapshot
EventRecorder::collect(bool clear)
{
    EventSnapshot out;
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const std::size_t n = shard.ring.size();
        // Oldest-first: once the ring has wrapped, the oldest event
        // sits at head; before that the ring is in append order.
        const std::size_t start = n < kCapacity ? 0 : shard.head;
        for (std::size_t i = 0; i < n; ++i)
            out.events.push_back(shard.ring[(start + i) % n]);
        out.dropped += shard.dropped;
        out.recorded += shard.recorded;
        if (clear) {
            shard.ring.clear();
            shard.head = 0;
        }
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const Event &l, const Event &r) { return l.seq < r.seq; });
    return out;
}

void
EventRecorder::reset()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.ring.clear();
        shard.ring.shrink_to_fit();
        shard.head = 0;
        shard.dropped = 0;
        shard.recorded = 0;
    }
    // Labels are kept: interned ids in already-collected events must
    // stay resolvable, mirroring Registry::resetValues() semantics.
    //
    // The sequence counter rewinds so a pinned single-threaded run
    // replayed after a reset assigns identical seqs (and, under fake
    // time, identical timestamps) — the basis for byte-stable journal
    // goldens.  Events collected before the reset keep their old seqs.
    // Bumping the generation discards every thread's cached seq block.
    nextSeq_.store(1, std::memory_order_relaxed);
    seqGeneration_.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t
EventRecorder::internLabel(std::string_view label)
{
    std::lock_guard<std::mutex> lock(labelMutex_);
    const auto it = labelIds_.find(label);
    if (it != labelIds_.end())
        return it->second;
    labels_.emplace_back(label);
    const auto id = static_cast<std::uint32_t>(labels_.size());
    labelIds_.emplace(std::string(label), id);
    return id;
}

std::string
EventRecorder::labelOf(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lock(labelMutex_);
    if (id == 0 || id > labels_.size())
        return "";
    return labels_[id - 1];
}

std::chrono::steady_clock::time_point
EventRecorder::steadyEpoch() const
{
    return steadyEpoch_;
}

std::string
EventRecorder::wallEpoch() const
{
    return wallEpoch_;
}

void
recordSpanEvent(std::string_view path,
                std::chrono::steady_clock::time_point start,
                std::uint64_t duration_nanos) noexcept
{
    EventRecorder &rec = EventRecorder::instance();
    if (!rec.enabled())
        return;
    EventData d;
    d.kind = EventKind::Span;
    d.label = path;
    // Real durations are nondeterministic, so under fake time they are
    // journaled as 0 — goldens stay byte-stable and the synthetic
    // timeline (seq-derived timestamps) already orders the slices.
    d.b = fakeTimeActive() ? 0 : duration_nanos;
    // Timestamp at the span's *start*, not at close: the exported
    // timeline slice must begin where the span began.  Spans that
    // opened before recording was enabled clamp to the epoch.
    const auto since = start - rec.steadyEpoch();
    const std::uint64_t at =
        since.count() < 0
            ? 0
            : static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      since)
                      .count());
    rec.record(d, at);
}

} // namespace sosim::obs
