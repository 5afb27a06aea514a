#include "asynchrony.h"

#include <algorithm>

#include "obs/obs.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::core {

double
asynchronyScore(const std::vector<const trace::TimeSeries *> &traces)
{
    SOSIM_REQUIRE(!traces.empty(), "asynchronyScore: need traces");
    for (const auto *t : traces)
        SOSIM_REQUIRE(t != nullptr, "asynchronyScore: null trace");

    double peak_sum = 0.0;
    trace::TimeSeries aggregate =
        trace::TimeSeries::zeros(traces.front()->size(),
                                 traces.front()->intervalMinutes());
    double aggregate_peak = 0.0;
    for (const auto *t : traces) {
        peak_sum += t->stats().peak;
        // Fused add + max-scan; the last call's return value is peak(Σ).
        aggregate_peak = trace::accumulatePeak(aggregate, *t);
    }
    if (aggregate_peak <= 0.0)
        return 0.0; // Eq. 6 undefined: zero-power convention.
    return peak_sum / aggregate_peak;
}

double
asynchronyScore(const std::vector<trace::TimeSeries> &traces)
{
    std::vector<const trace::TimeSeries *> ptrs;
    ptrs.reserve(traces.size());
    for (const auto &t : traces)
        ptrs.push_back(&t);
    return asynchronyScore(ptrs);
}

double
pairAsynchronyScore(const trace::TimeSeries &a, const trace::TimeSeries &b)
{
    const double aggregate_peak = trace::peakOfSum(a, b);
    if (aggregate_peak <= 0.0)
        return 0.0; // Eq. 7 undefined: zero-power convention.
    return (a.stats().peak + b.stats().peak) / aggregate_peak;
}

cluster::Point
scoreVector(const trace::TimeSeries &itrace,
            const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_REQUIRE(!straces.empty(), "scoreVector: need S-traces");
    cluster::Point v;
    v.reserve(straces.size());
    for (const auto &s : straces)
        v.push_back(pairAsynchronyScore(itrace, s));
    return v;
}

std::vector<cluster::Point>
scoreVectors(const std::vector<trace::TimeSeries> &itraces,
             const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_SPAN("scoring.score_vectors");
    SOSIM_COUNT_ADD("scoring.rows", itraces.size());
    SOSIM_REQUIRE(!straces.empty(), "scoreVectors: need S-traces");
    // Warm the shared stats caches serially: the row workers only read
    // them (see the threading note on TimeSeries::stats()).
    for (const auto &s : straces)
        s.stats();
    for (const auto &t : itraces)
        t.stats();

    std::vector<cluster::Point> out(itraces.size());
    util::parallelFor(itraces.size(), [&](std::size_t i) {
        out[i] = scoreVector(itraces[i], straces);
    });
    return out;
}

std::vector<cluster::Point>
scoreVectorsBlocked(const std::vector<trace::TimeSeries> &itraces,
                    const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_SPAN("scoring.score_vectors_blocked");
    SOSIM_COUNT_ADD("scoring.rows", itraces.size());
    SOSIM_REQUIRE(!straces.empty(), "scoreVectorsBlocked: need S-traces");
    if (itraces.empty())
        return {};

    // Pack both populations into SoA arenas (contiguous, 64-byte-aligned
    // rows) and compute the whole peak(a + b) grid in one batch; the
    // Eq. 7 division happens on the cached peaks afterward.
    const trace::TraceArena ivecs = trace::TraceArena::fromSeries(itraces);
    const trace::TraceArena svecs = trace::TraceArena::fromSeries(straces);
    std::vector<double> ipeaks(itraces.size());
    for (std::size_t i = 0; i < itraces.size(); ++i)
        ipeaks[i] = itraces[i].stats().peak;
    std::vector<double> speaks(straces.size());
    for (std::size_t j = 0; j < straces.size(); ++j)
        speaks[j] = straces[j].stats().peak;

    const std::vector<double> peaks = trace::scoreVectorsBatch(ivecs, svecs);
    std::vector<cluster::Point> out(itraces.size());
    for (std::size_t i = 0; i < itraces.size(); ++i) {
        cluster::Point &v = out[i];
        v.resize(straces.size());
        for (std::size_t j = 0; j < straces.size(); ++j) {
            const double aggregate_peak = peaks[i * straces.size() + j];
            v[j] = aggregate_peak <= 0.0
                       ? 0.0 // Zero-power convention.
                       : (ipeaks[i] + speaks[j]) / aggregate_peak;
        }
    }
    return out;
}

double
differentialScore(const trace::TimeSeries &itrace,
                  const trace::TimeSeries &node_others,
                  std::size_t other_count)
{
    SOSIM_REQUIRE(other_count >= 1,
                  "differentialScore: need at least one other instance");
    // PA_{i,N} is the *average* trace of the node's other instances;
    // fold the 1/count scale into the kernels instead of materializing
    // a scaled copy.  peak(s * x) == s * peak(x) for s > 0.
    const double scale = 1.0 / static_cast<double>(other_count);
    const double aggregate_peak =
        trace::peakOfScaledSum(itrace, node_others, scale);
    if (aggregate_peak <= 0.0)
        return 0.0; // Zero-power convention.
    return (itrace.stats().peak + scale * node_others.stats().peak) /
           aggregate_peak;
}

namespace reference {

namespace {

/**
 * Uncached peak: one max_element scan per call, exactly what the
 * pre-kernel implementation paid.  The cached TimeSeries::peak() would
 * make the reference look faster than the code it stands in for.
 */
double
scanPeak(const trace::TimeSeries &t)
{
    SOSIM_REQUIRE(!t.empty(), "reference::scanPeak: series is empty");
    return *std::max_element(t.samples().begin(), t.samples().end());
}

} // namespace

double
pairAsynchronyScore(const trace::TimeSeries &a, const trace::TimeSeries &b)
{
    const double aggregate_peak = scanPeak(a + b);
    if (aggregate_peak <= 0.0)
        return 0.0;
    return (scanPeak(a) + scanPeak(b)) / aggregate_peak;
}

cluster::Point
scoreVector(const trace::TimeSeries &itrace,
            const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_REQUIRE(!straces.empty(), "reference::scoreVector: need S-traces");
    cluster::Point v;
    v.reserve(straces.size());
    for (const auto &s : straces)
        v.push_back(reference::pairAsynchronyScore(itrace, s));
    return v;
}

std::vector<cluster::Point>
scoreVectors(const std::vector<trace::TimeSeries> &itraces,
             const std::vector<trace::TimeSeries> &straces)
{
    std::vector<cluster::Point> out;
    out.reserve(itraces.size());
    for (const auto &itrace : itraces)
        out.push_back(reference::scoreVector(itrace, straces));
    return out;
}

double
differentialScore(const trace::TimeSeries &itrace,
                  const trace::TimeSeries &node_others,
                  std::size_t other_count)
{
    SOSIM_REQUIRE(other_count >= 1,
                  "reference::differentialScore: need at least one other "
                  "instance");
    trace::TimeSeries pa = node_others;
    pa *= 1.0 / static_cast<double>(other_count);
    return reference::pairAsynchronyScore(itrace, pa);
}

} // namespace reference

std::vector<cluster::Point>
embedPopulation(const std::vector<trace::TimeSeries> &itraces,
                const std::vector<trace::TimeSeries> &straces,
                ScoringImpl impl, trace::KernelMode kernels)
{
    if (impl == ScoringImpl::kReference)
        return reference::scoreVectors(itraces, straces);
    if (kernels == trace::KernelMode::kBlocked)
        return scoreVectorsBlocked(itraces, straces);
    return scoreVectors(itraces, straces);
}

} // namespace sosim::core
