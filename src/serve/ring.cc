#include "ring.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/error.h"

namespace sosim::serve {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** slotFillTicks() value of an empty slot. */
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

/**
 * The one tick in (frontier - window, frontier] that slot `s` can hold,
 * or kEmpty when that tick would precede the stream's tick 0.
 */
std::uint64_t
slotTick(std::uint64_t frontier, std::size_t window, std::size_t s)
{
    const std::uint64_t back = (frontier % window + window - s) % window;
    return back <= frontier ? frontier - back : kEmpty;
}

constexpr std::size_t
countIndex(IngestStatus s)
{
    return static_cast<std::size_t>(s);
}

} // namespace

std::string
ingestStatusName(IngestStatus s)
{
    switch (s) {
      case IngestStatus::Accepted:
        return "accepted";
      case IngestStatus::AcceptedLate:
        return "accepted_late";
      case IngestStatus::RejectedStale:
        return "rejected_stale";
      case IngestStatus::RejectedFuture:
        return "rejected_future";
      case IngestStatus::RejectedDuplicate:
        return "rejected_duplicate";
      case IngestStatus::RejectedNonFinite:
        return "rejected_nonfinite";
      case IngestStatus::RejectedNegative:
        return "rejected_negative";
      case IngestStatus::RejectedUnknownInstance:
        return "rejected_unknown_instance";
    }
    return "unknown";
}

StreamRing::StreamRing(std::size_t instances, std::size_t window,
                       int interval_minutes)
    : instances_(instances), window_(window),
      intervalMinutes_(interval_minutes), slots_(instances * window, kNaN)
{
    SOSIM_REQUIRE(instances > 0, "StreamRing: need at least one instance");
    SOSIM_REQUIRE(window > 0, "StreamRing: window must be >= 1 tick");
}

IngestStatus
StreamRing::reject(const Sample &s, IngestStatus reason)
{
    counts_[countIndex(reason)].fetch_add(1, std::memory_order_relaxed);
    SOSIM_EVENT(.kind = obs::EventKind::IngestReject,
                .code = static_cast<std::uint32_t>(reason),
                .label = ingestStatusName(reason), .a = s.instance,
                .b = s.tick,
                .x = std::isfinite(s.watts) ? s.watts : 0.0);
    {
        std::lock_guard<std::mutex> lock(quarantineMutex_);
        if (quarantine_.size() >= kQuarantineCapacity)
            quarantine_.pop_front();
        quarantine_.push_back(QuarantinedSample{s, reason});
    }
    return reason;
}

IngestStatus
StreamRing::ingest(const Sample &s)
{
    if (s.instance >= instances_)
        return reject(s, IngestStatus::RejectedUnknownInstance);
    if (!std::isfinite(s.watts))
        return reject(s, IngestStatus::RejectedNonFinite);
    if (s.watts < 0.0)
        return reject(s, IngestStatus::RejectedNegative);
    if (s.tick > frontier_)
        return reject(s, IngestStatus::RejectedFuture);
    if (s.tick + window_ <= frontier_)
        return reject(s, IngestStatus::RejectedStale);

    // An occupied slot inside the window can only hold this same tick
    // (advanceTo clears departing ticks), so occupied means duplicate.
    double &slot = slots_[s.instance * window_ + s.tick % window_];
    if (!std::isnan(slot))
        return reject(s, IngestStatus::RejectedDuplicate);
    slot = s.watts;
    const IngestStatus status = s.tick < frontier_
                                    ? IngestStatus::AcceptedLate
                                    : IngestStatus::Accepted;
    counts_[countIndex(status)].fetch_add(1, std::memory_order_relaxed);
    return status;
}

void
StreamRing::advanceTo(std::uint64_t tick)
{
    while (frontier_ < tick) {
        // The tick entering the window evicts the one whose slot it
        // reuses.
        ++frontier_;
        const std::size_t slot_index =
            static_cast<std::size_t>(frontier_ % window_);
        for (std::size_t i = 0; i < instances_; ++i)
            slots_[i * window_ + slot_index] = kNaN;
    }
    SOSIM_GAUGE_SET("serve.ring.frontier", double(frontier_));
}

std::vector<trace::TimeSeries>
StreamRing::snapshotWindow() const
{
    // Oldest-first: sample j covers tick frontier + 1 - window + j,
    // whose slot is (frontier + 1 + j) % window.  Ticks before the
    // stream began map to slots past the frontier, which no sample can
    // have filled, so they stay NaN.
    const auto start =
        static_cast<std::ptrdiff_t>((frontier_ + 1) % window_);
    const auto width = static_cast<std::ptrdiff_t>(window_);
    std::vector<trace::TimeSeries> out;
    out.reserve(instances_);
    for (std::size_t i = 0; i < instances_; ++i) {
        const auto row =
            slots_.begin() + static_cast<std::ptrdiff_t>(i * window_);
        std::vector<double> samples(window_);
        std::rotate_copy(row, row + start, row + width, samples.begin());
        out.emplace_back(std::move(samples), intervalMinutes_);
    }
    return out;
}

std::vector<QuarantinedSample>
StreamRing::quarantined() const
{
    std::lock_guard<std::mutex> lock(quarantineMutex_);
    return std::vector<QuarantinedSample>(quarantine_.begin(),
                                          quarantine_.end());
}

std::uint64_t
StreamRing::acceptedCount() const
{
    return counts_[countIndex(IngestStatus::Accepted)].load(
               std::memory_order_relaxed) +
           lateCount();
}

std::uint64_t
StreamRing::lateCount() const
{
    return counts_[countIndex(IngestStatus::AcceptedLate)].load(
        std::memory_order_relaxed);
}

std::uint64_t
StreamRing::rejectedCount(IngestStatus reason) const
{
    SOSIM_REQUIRE(!ingestAccepted(reason),
                  "StreamRing::rejectedCount: not a rejection reason");
    return counts_[countIndex(reason)].load(std::memory_order_relaxed);
}

std::uint64_t
StreamRing::rejectedTotal() const
{
    std::uint64_t total = 0;
    for (std::size_t r = 2; r < counts_.size(); ++r)
        total += counts_[r].load(std::memory_order_relaxed);
    return total;
}

void
StreamRing::publishCounters()
{
    std::array<std::uint64_t, 8> now{};
    for (std::size_t c = 0; c < counts_.size(); ++c)
        now[c] = counts_[c].load(std::memory_order_relaxed);
    // Dynamic names — the SOSIM_COUNT static-reference cache would pin
    // the first name seen, so go through the registry directly.
    const auto publish = [](const std::string &name, std::uint64_t grew) {
        if (grew != 0)
            obs::registry().counter("serve.ingest." + name).add(grew);
    };
    const auto grew = [&](IngestStatus s) {
        return now[countIndex(s)] - published_[countIndex(s)];
    };
    publish("accepted", grew(IngestStatus::Accepted) +
                            grew(IngestStatus::AcceptedLate));
    publish("late", grew(IngestStatus::AcceptedLate));
    for (std::size_t r = countIndex(IngestStatus::RejectedStale);
         r < counts_.size(); ++r) {
        const auto reason = static_cast<IngestStatus>(r);
        publish(ingestStatusName(reason), grew(reason));
    }
    published_ = now;
}

std::vector<std::uint64_t>
StreamRing::slotFillTicks() const
{
    std::vector<std::uint64_t> out(slots_.size(), kEmpty);
    for (std::size_t k = 0; k < slots_.size(); ++k)
        if (!std::isnan(slots_[k]))
            out[k] = slotTick(frontier_, window_, k % window_);
    return out;
}

std::vector<std::uint64_t>
StreamRing::counterValues() const
{
    std::vector<std::uint64_t> out(counts_.size());
    for (std::size_t c = 0; c < counts_.size(); ++c)
        out[c] = counts_[c].load(std::memory_order_relaxed);
    return out;
}

bool
StreamRing::restoreState(std::uint64_t frontier,
                         const std::vector<double> &slot_values,
                         const std::vector<std::uint64_t> &slot_fill_ticks,
                         const std::vector<std::uint64_t> &counters)
{
    if (slot_values.size() != slots_.size() ||
        slot_fill_ticks.size() != slots_.size() ||
        counters.size() != counts_.size())
        return false;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        const double v = slot_values[k];
        const std::uint64_t tick = slotTick(frontier, window_, k % window_);
        const bool consistent =
            std::isnan(v) ? slot_fill_ticks[k] == kEmpty
                          : std::isfinite(v) && v >= 0.0 &&
                                tick != kEmpty && slot_fill_ticks[k] == tick;
        if (!consistent)
            return false;
    }

    frontier_ = frontier;
    slots_ = slot_values;
    for (std::size_t c = 0; c < counts_.size(); ++c) {
        counts_[c].store(counters[c], std::memory_order_relaxed);
        published_[c] = counters[c];
    }
    {
        std::lock_guard<std::mutex> lock(quarantineMutex_);
        quarantine_.clear();
    }
    return true;
}

} // namespace sosim::serve
