#ifndef SOSIM_WORKLOAD_DC_PRESETS_H
#define SOSIM_WORKLOAD_DC_PRESETS_H

/**
 * @file
 * Specifications of the three datacenters under study.
 *
 * The presets reproduce the *qualitative* properties the paper reports:
 *   - DC1: frontend-dominated with many similar day-peaking services, low
 *     instance heterogeneity, and an already-balanced oblivious placement
 *     -> smallest placement gains (paper: 2.3% RPP peak reduction).
 *   - DC2: mixed LC / storage / batch population -> moderate gains
 *     (paper: 7.1%).
 *   - DC3: strongly heterogeneous mix (day-peaking frontend, flat hadoop,
 *     night-peaking db) -> largest gains (paper: 13.1%), but LC-heavy, so
 *     reshaping has the least Batch to throttle (Figure 14).
 *
 * Service power shares approximate the top-10 breakdowns of Figure 5.
 */

#include "workload/generator.h"

namespace sosim::workload {

/** Knobs shared by the three presets. */
struct PresetOptions {
    /** Trace resolution; 5 minutes bounds bench memory (DESIGN.md §6). */
    int intervalMinutes = 5;
    /** Multiplier on every service's instance count. */
    double scale = 1.0;
    /** Weeks of trace (last week is held out for evaluation). */
    int weeks = 3;
    /** Master seed. */
    std::uint64_t seed = 2018;
};

/** DC1: homogeneous, frontend-dominated datacenter. */
DatacenterSpec buildDc1Spec(const PresetOptions &options = {});

/** DC2: mixed web / database / batch datacenter. */
DatacenterSpec buildDc2Spec(const PresetOptions &options = {});

/** DC3: highly heterogeneous, LC-heavy datacenter. */
DatacenterSpec buildDc3Spec(const PresetOptions &options = {});

/** All three presets in order (DC1, DC2, DC3). */
std::vector<DatacenterSpec> buildAllDcSpecs(
    const PresetOptions &options = {});

/**
 * Fleet-scale mixed datacenter sized to exactly `population` instances
 * (~8 per rack), for the fleet scaling scenarios (perfbench's
 * fleet-10240 workload, tests/test_golden.cc's fleet digest).
 *
 * Eight services of population/8 instances each span the catalog's
 * shape space — day-peaking LC, flat batch, night-peaking storage,
 * evening peaks — so the population clusters cleanly and the pruned
 * swap scan has genuine asynchrony to find.  Fleets of 8192 instances
 * and up widen to sixteen services (population/16 each) drawn from the
 * full catalog, for a more realistic shape mix at 10k+ populations;
 * smaller fleets are unchanged.  The topology is derived
 * from the population (16 racks per SB, suites/SBs balanced), so rack
 * count grows with the fleet instead of piling instances onto the
 * bench topology.  `options.scale` is ignored (the population is
 * explicit).
 *
 * @param population Instance count; must be a positive multiple of 256.
 */
DatacenterSpec buildFleetSpec(int population,
                              const PresetOptions &options = {});

} // namespace sosim::workload

#endif // SOSIM_WORKLOAD_DC_PRESETS_H
