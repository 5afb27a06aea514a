#ifndef SOSIM_CORE_ASYNCHRONY_H
#define SOSIM_CORE_ASYNCHRONY_H

/**
 * @file
 * The asynchrony score (section 3.4 of the paper), SmoothOperator's
 * measure of how well the peaks of a set of power traces spread out over
 * time:
 *
 *   A_M = f(M) = sum_j peak(P_j) / peak(sum_j P_j)          (Eq. 6)
 *
 * A_M is 1.0 when every member peaks simultaneously and approaches |M|
 * when the members' peaks are perfectly complementary.  Instances are
 * embedded for clustering as vectors of instance-to-service (I-to-S)
 * scores against the top power-consumer services' S-traces.
 *
 * Zero-power convention (uniform across the library, including
 * Remapper::rackScores): Eq. 6 is undefined when the aggregate trace has
 * no positive peak (e.g. all-zero traces), and every scoring entry point
 * returns the sentinel 0.0 for that case.  0.0 is outside the score's
 * theoretical range [1, |M|], so callers can detect it, and it sorts
 * below every defined score — a zero-power node never looks smoother
 * than a powered one.
 *
 * Implementation: scores run on the fused kernels of trace/kernels.h
 * (single pass, no temporaries).  A peak read by many scores is scanned
 * once where it is read: scoreVectors scans each S-trace peak before
 * fanning rows out via util::parallelFor, and each I-trace peak inside
 * its own row.
 * The materializing formulas are retained in core::reference as the
 * oracle the property tests compare the fused kernels against.
 */

#include <vector>

#include "cluster/kmeans.h"
#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::core {

/**
 * Which scoreVectors implementation a consumer routes through: the fused
 * kernel path (production) or the materializing reference (A/B
 * benchmarking and identity tests; see core::reference below).  The two
 * produce bit-identical scores.
 */
enum class ScoringImpl { kFused, kReference };

/**
 * Asynchrony score of a set of power traces (Eq. 6).
 *
 * @param traces Member traces; all aligned, at least one, no nulls.
 * @return Score in [1, |traces|] up to floating-point rounding, or 0.0
 *         when the aggregate peak is not positive (see file comment).
 */
double asynchronyScore(const std::vector<const trace::TimeSeries *> &traces);

/** Convenience overload over owned traces. */
double asynchronyScore(const std::vector<trace::TimeSeries> &traces);

/**
 * Pairwise asynchrony score between two traces (Eq. 7):
 * (peak(a) + peak(b)) / peak(a + b); 0.0 on a non-positive aggregate
 * peak.
 */
double pairAsynchronyScore(const trace::TimeSeries &a,
                           const trace::TimeSeries &b);

/**
 * Instance-to-service asynchrony score vector (section 3.5): element k is
 * the pairwise score between the instance's averaged I-trace and the k-th
 * S-trace.  This embeds the instance in a |S|-dimensional space where
 * synchronous instances land close together.
 *
 * @param itrace  The instance's averaged I-trace.
 * @param straces The S-traces of the top power-consumer services.
 */
cluster::Point scoreVector(const trace::TimeSeries &itrace,
                           const std::vector<trace::TimeSeries> &straces);

/**
 * Score vectors for a whole population of instances.  Rows are computed
 * in parallel (util::parallelFor) with per-row output slots, so the
 * result is bit-identical to the serial evaluation for any thread count.
 */
std::vector<cluster::Point>
scoreVectors(const std::vector<trace::TimeSeries> &itraces,
             const std::vector<trace::TimeSeries> &straces);

/**
 * Arena-packed population embedding: the same scores as scoreVectors,
 * but both trace sets are packed into trace::TraceArena buffers and the
 * peak(a + b) grid runs as one batch (trace::scoreVectorsBatch) on the
 * same peakOfSum kernel.  Selected via PlacementConfig::kernels.
 */
std::vector<cluster::Point>
scoreVectorsBlocked(const std::vector<trace::TimeSeries> &itraces,
                    const std::vector<trace::TimeSeries> &straces);

/**
 * Route a population embedding through the configured implementation:
 * reference::scoreVectors for ScoringImpl::kReference, otherwise the
 * fused path (scoreVectorsBlocked when kernels == kBlocked, scoreVectors
 * for kStrict).  This is the body of the pipeline's place.embed node
 * and of PlacementEngine::place's embedding stage; all routes yield
 * bit-identical placements for a fixed seed.
 */
std::vector<cluster::Point>
embedPopulation(const std::vector<trace::TimeSeries> &itraces,
                const std::vector<trace::TimeSeries> &straces,
                ScoringImpl impl, trace::KernelMode kernels);

/**
 * Differential asynchrony score of instance i against power node N
 * (section 3.6):
 *
 *   AD_{i,N} = (peak(PI_i) + peak(PA_{i,N})) / peak(PI_i + PA_{i,N}),
 *
 * where PA_{i,N} is the average of the I-traces of N's other instances.
 * Low AD flags the instance whose peak coincides worst with its node.
 * Computed fused — no per-call copy or scale of node_others.
 *
 * @param itrace      Averaged I-trace of the instance under evaluation.
 * @param node_others Sum of the averaged I-traces of every *other*
 *                    instance under the node.
 * @param other_count Number of other instances (>= 1).
 */
double differentialScore(const trace::TimeSeries &itrace,
                         const trace::TimeSeries &node_others,
                         std::size_t other_count);

/**
 * Materializing reference implementations of the scores above: the naive
 * "build the aggregate TimeSeries, then take its peak" formulas the fused
 * kernels replace.  Kept for property tests (fused results must match
 * these bit for bit) and selectable as PlacementConfig::scoring =
 * ScoringImpl::kReference.  Serial; allocate per call; do not use on hot
 * paths.
 */
namespace reference {

/** Naive Eq. 7: materializes a + b. */
double pairAsynchronyScore(const trace::TimeSeries &a,
                           const trace::TimeSeries &b);

/** Naive score vector built on reference::pairAsynchronyScore. */
cluster::Point scoreVector(const trace::TimeSeries &itrace,
                           const std::vector<trace::TimeSeries> &straces);

/** Naive, serial population embedding. */
std::vector<cluster::Point>
scoreVectors(const std::vector<trace::TimeSeries> &itraces,
             const std::vector<trace::TimeSeries> &straces);

/** Naive AD score: copies and scales node_others per call. */
double differentialScore(const trace::TimeSeries &itrace,
                         const trace::TimeSeries &node_others,
                         std::size_t other_count);

} // namespace reference

} // namespace sosim::core

#endif // SOSIM_CORE_ASYNCHRONY_H
