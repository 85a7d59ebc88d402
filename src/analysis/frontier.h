/**
 * @file
 * Offline coverage cartography: load a campaign's covmap snapshot log
 * (obs/covmap.h) back into a merged profile, classify blocks into
 * hot / warm / cold / unreached heat bands, group them by kernel
 * subsystem, and derive the ranked cold-frontier target set that
 * `fuzz --directed-from` feeds into Snowplow-D.
 *
 * Heat bands are percentile-relative, not absolute: over the multiset
 * of *reached* block hit counts, cold = at or below the p10 hit count
 * and hot = at or above the p90 (ties included, so the bands are
 * deterministic for a given map). Frontier targets are a property of
 * the CFG geometry, not the bands: every unreached static successor of
 * a reached two-way branch, ranked by how often the campaign hit the
 * guarding block without ever crossing (obs::computeFrontier — the
 * same function the live /coverage summary uses, so online and offline
 * rankings agree).
 *
 * Subsystems come from syscall names: the owning handler's name up to
 * the '$' variant separator ("ioctl$scsi" → "ioctl" family is *not*
 * the interesting axis here — the variant suffix names the subsystem,
 * so "scsi"), with the generated kernels' role prefixes
 * (open_/use_/close_) stripped: "sys3$open_res1" and "sys9$use_res1"
 * are both subsystem "res1".
 */
#ifndef SP_ANALYSIS_FRONTIER_H
#define SP_ANALYSIS_FRONTIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "obs/covmap.h"
#include "util/json.h"

namespace sp::analysis {

/** One covmap_window record of the snapshot log. */
struct WindowRecord
{
    uint64_t execs = 0;
    std::vector<uint32_t> new_blocks;
    uint64_t block_hit_delta = 0;  ///< sum of the window's block deltas
    uint64_t stray_edges = 0;
    size_t blocks_hit = 0;         ///< cumulative at window end
    size_t edges_hit = 0;
    size_t frontier_size = 0;
};

/** A snapshot log folded back into the final merged map. */
struct CovProfile
{
    /** The header's geometry; its dense edge order is the log's. */
    obs::CovMapPlan plan;
    /** Cumulative counts reconstructed from the window deltas. */
    obs::CovCounts counts;
    uint64_t execs = 0;
    std::vector<WindowRecord> windows;
    /** The parsed covmap_header line (campaign fields like "kernel"
     *  spliced in by the writer stay reachable through find()). */
    json::Value header;

    std::string error;  ///< empty = loaded successfully
    bool ok() const { return error.empty(); }

    /** Parse a JSONL snapshot log; on failure `error` says why. */
    static CovProfile load(const std::string &path);
};

/** Heat band of one block. */
enum class Heat { Unreached, Cold, Warm, Hot };

const char *heatName(Heat heat);

/** Percentile-derived band boundaries over reached-block hit counts. */
struct HeatThresholds
{
    uint64_t cold_max = 0;  ///< reached && hits <= cold_max → Cold
    uint64_t hot_min = 0;   ///< hits >= hot_min → Hot
};

/** p10/p90 boundaries over the *reached* entries of `block_hits`.
 *  With no reached blocks both thresholds are 0. */
HeatThresholds heatThresholds(const std::vector<uint64_t> &block_hits);

/** Band of a single block's hit count under `t`. */
Heat heatOf(uint64_t hits, const HeatThresholds &t);

/** One ranked cold-frontier target with its kernel attribution. */
struct FrontierTarget
{
    uint32_t target = 0;      ///< unreached successor block
    uint32_t guard = 0;       ///< reached branch block guarding it
    uint64_t guard_hits = 0;
    std::string subsystem;    ///< "" when no kernel was supplied
    bool bug_site = false;    ///< target is a planted bug block
};

/**
 * The ranked cold-frontier target set of a profile. `kernel`, when
 * non-null, attributes each target to its subsystem and flags planted
 * bug sites; it must be the kernel the campaign ran (same seed /
 * version), or attribution is meaningless. `cap` > 0 truncates.
 */
std::vector<FrontierTarget> frontierTargets(const CovProfile &profile,
                                            const kern::Kernel *kernel,
                                            size_t cap = 0);

/** Subsystem of a syscall name (see file comment for the rules). */
std::string subsystemOfSyscall(const std::string &syscall_name);

/** Per-block subsystem names via each block's owning handler. */
std::vector<std::string> blockSubsystems(const kern::Kernel &kernel);

/** Aggregated heat of one subsystem's blocks. */
struct SubsystemHeat
{
    std::string name;
    size_t blocks = 0;     ///< blocks owned by the subsystem
    size_t reached = 0;
    size_t hot = 0;
    size_t cold = 0;
    size_t frontier = 0;   ///< frontier targets inside the subsystem
    uint64_t total_hits = 0;
};

/**
 * Group a profile's blocks by subsystem and fold heat bands + frontier
 * membership. Sorted by total hits descending, name ascending (the
 * heat-report order).
 */
std::vector<SubsystemHeat> subsystemHeat(
    const CovProfile &profile, const kern::Kernel &kernel,
    const HeatThresholds &thresholds,
    const std::vector<FrontierTarget> &targets);

}  // namespace sp::analysis

#endif  // SP_ANALYSIS_FRONTIER_H
