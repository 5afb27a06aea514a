#include "asynchrony.h"

#include <algorithm>

#include "obs/obs.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::core {

namespace {

/** Eq. 7 from its three peaks, with the zero-power convention. */
double
pairScore(double peak_a, double peak_b, double aggregate_peak)
{
    if (aggregate_peak <= 0.0)
        return 0.0; // Eq. 7 undefined: zero-power convention.
    return (peak_a + peak_b) / aggregate_peak;
}

/** Peaks of a trace set, one scan each. */
std::vector<double>
peaksOf(const std::vector<trace::TimeSeries> &traces)
{
    std::vector<double> peaks(traces.size());
    for (std::size_t j = 0; j < traces.size(); ++j)
        peaks[j] = traces[j].peak();
    return peaks;
}

/** scoreVector with the S-trace peaks already computed. */
cluster::Point
scoreRow(const trace::TimeSeries &itrace,
         const std::vector<trace::TimeSeries> &straces,
         const std::vector<double> &speaks)
{
    const double ipeak = itrace.peak();
    cluster::Point v(straces.size());
    for (std::size_t j = 0; j < straces.size(); ++j)
        v[j] = pairScore(ipeak, speaks[j],
                         trace::peakOfSum(itrace, straces[j]));
    return v;
}

} // namespace

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
        peak_sum += t->peak();
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
    return pairScore(a.peak(), b.peak(), trace::peakOfSum(a, b));
}

cluster::Point
scoreVector(const trace::TimeSeries &itrace,
            const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_REQUIRE(!straces.empty(), "scoreVector: need S-traces");
    return scoreRow(itrace, straces, peaksOf(straces));
}

std::vector<cluster::Point>
scoreVectors(const std::vector<trace::TimeSeries> &itraces,
             const std::vector<trace::TimeSeries> &straces)
{
    SOSIM_SPAN("scoring.score_vectors");
    SOSIM_COUNT_ADD("scoring.rows", itraces.size());
    SOSIM_REQUIRE(!straces.empty(), "scoreVectors: need S-traces");
    // Each S-trace peak is read by every row: scan it once here.  Each
    // I-trace peak is read by its own row only.
    const std::vector<double> speaks = peaksOf(straces);
    std::vector<cluster::Point> out(itraces.size());
    util::parallelFor(itraces.size(), [&](std::size_t i) {
        out[i] = scoreRow(itraces[i], straces, speaks);
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
    // Eq. 7 division then runs per row, next to that row's own peak.
    const trace::TraceArena ivecs = trace::TraceArena::fromSeries(itraces);
    const trace::TraceArena svecs = trace::TraceArena::fromSeries(straces);
    const std::vector<double> speaks = peaksOf(straces);
    const std::vector<double> peaks = trace::scoreVectorsBatch(ivecs, svecs);
    const std::size_t cols = straces.size();
    std::vector<cluster::Point> out(itraces.size());
    util::parallelFor(itraces.size(), [&](std::size_t i) {
        const double ipeak = trace::peakOf(ivecs.view(i));
        cluster::Point &v = out[i];
        v.resize(cols);
        for (std::size_t j = 0; j < cols; ++j)
            v[j] = pairScore(ipeak, speaks[j], peaks[i * cols + j]);
    });
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
    return (itrace.peak() + scale * node_others.peak()) / aggregate_peak;
}

namespace reference {

namespace {

/**
 * Plain peak: one scalar max_element scan per call, exactly what the
 * pre-kernel implementation paid.  TimeSeries::peak() runs the vector
 * scan of trace/kernels.cc, which would make the reference look faster
 * than the code it stands in for.
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
