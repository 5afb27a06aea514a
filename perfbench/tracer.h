#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

/**
 * @file
 * Benchmark-side span recorder.  The traced run wraps every public call
 * into a library module in a span named after the layer it belongs to
 * ("core.remap", "serve.ingest", ...).  Spans stay in memory — name,
 * start, end, parent and the workload iteration they belong to — and are
 * written out once the run ends.  A layer's self time is its spans'
 * duration minus the part covered by their child spans.
 *
 * A disabled tracer runs the same call sequence with no clock reads and
 * no records, which is what the tracing-overhead measurement compares
 * against.  Single-threaded: spans are opened by the benchmark's driver
 * thread only.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are nanoseconds since the tracer started. */
struct Span {
    std::string name;
    std::uint32_t id = 0;
    /** Id of the enclosing span; kNoParent for a root. */
    std::uint32_t parent = 0;
    std::uint32_t iteration = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t), index_(t.open(name)) {}
        ~Scope() { t_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::size_t index_;
    };

    void setIteration(std::uint32_t it) { iteration_ = it; }

    /** Self time in milliseconds per span name over one iteration. */
    std::map<std::string, double>
    selfMsByName(std::uint32_t iteration) const
    {
        const auto self = selfNs();
        std::map<std::string, double> out;
        for (const auto &s : spans_)
            if (s.iteration == iteration)
                out[s.name] += static_cast<double>(self[s.id]) / 1e6;
        return out;
    }

    /**
     * Summed self time in milliseconds of every span of one iteration
     * that descends from a span named `root` (the root excluded).
     */
    double selfMsUnder(std::uint32_t iteration, const std::string &root) const
    {
        const auto self = selfNs();
        // A parent is always recorded before its children.
        std::vector<char> under(spans_.size(), 0);
        double ms = 0.0;
        for (const auto &s : spans_) {
            if (s.parent == kNoParent)
                continue;
            under[s.id] = spans_[s.parent].name == root || under[s.parent];
            if (under[s.id] && s.iteration == iteration)
                ms += static_cast<double>(self[s.id]) / 1e6;
        }
        return ms;
    }

    /** Every span as one JSON array (written once, at exit). */
    void writeJson(std::ostream &os) const
    {
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            os << "  {\"id\": " << s.id << ", \"parent\": ";
            if (s.parent == kNoParent)
                os << "null";
            else
                os << s.parent;
            os << ", \"name\": \"" << s.name << "\", \"iteration\": "
               << s.iteration << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << "}"
               << (i + 1 < spans_.size() ? "," : "") << "\n";
        }
        os << "]\n";
    }

  private:
    /** Each span's duration minus its children's, indexed by id. */
    std::vector<std::int64_t> selfNs() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (const auto &s : spans_) {
            self[s.id] += s.endNs - s.startNs;
            if (s.parent != kNoParent)
                self[s.parent] -= s.endNs - s.startNs;
        }
        return self;
    }

    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::size_t open(const char *name)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = name;
        s.id = static_cast<std::uint32_t>(spans_.size());
        s.parent = stack_.empty() ? kNoParent : stack_.back();
        s.iteration = iteration_;
        stack_.push_back(s.id);
        spans_.push_back(std::move(s));
        spans_.back().startNs = nowNs();
        return spans_.size() - 1;
    }

    void close(std::size_t index)
    {
        if (!enabled_)
            return;
        spans_[index].endNs = nowNs();
        stack_.pop_back();
    }

    bool enabled_;
    std::uint32_t iteration_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    const std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
