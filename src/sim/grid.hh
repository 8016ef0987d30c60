/**
 * @file
 * Scan-once grid sweeps over a single external trace.
 *
 * Replaying a parameter grid (system x queue depth x GC policy x
 * pool size) over one block trace used to re-run the whole
 * parse/adapter chain — file decode, 4KB split, fingerprint
 * synthesis, LBA compaction — once per cell. TraceSpool runs that
 * chain exactly once and spools the post-adapter record stream into
 * the compact native binary form: in memory while the trace fits a
 * byte budget, spilling to a temporary binary trace file otherwise.
 * Every grid cell then replays from the spool through the ordinary
 * runSystemOnScannedTrace() path, fanned across worker threads by
 * util/thread_pool.hh.
 *
 * The binary record form round-trips every TraceRecord field exactly
 * (trace/io.hh), so a cell's result is byte-identical to a
 * standalone run of the same configuration — the spool is a pure
 * decode cache, never a semantic change (DESIGN.md section 7.17).
 */

#ifndef ZOMBIE_SIM_GRID_HH
#define ZOMBIE_SIM_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/adapters.hh"

namespace zombie
{

/**
 * The axes of a grid sweep, each a key swept over its values. The
 * system axis picks the cell's system; every other axis is an
 * experiment-key row (sim/experiment.hh) and applies its values through
 * that row's parser, exactly as the matching flag would. An axis the
 * spec does not list inherits the base configuration and contributes
 * nothing to cell labels.
 */
struct GridSpec
{
    struct Axis
    {
        std::string name;                //!< "system", "depth", ...
        std::vector<std::string> values; //!< as written in the spec
    };

    /** Listed axes, outermost first: system, then table order. */
    std::vector<Axis> axes;

    /** Total cell count (product of the listed axes). */
    std::uint64_t cells() const;
};

/**
 * Parse "system=dvp,dedup;depth=1,32;gc=greedy;pool=5000" into a
 * GridSpec. Unknown axes, empty value lists and values their key
 * rejects are fatal (user error); a repeated axis appends values.
 */
GridSpec parseGridSpec(const std::string &text);

/** One expanded grid cell: a labelled (system, options) pair. */
struct GridCell
{
    std::string label;   //!< "system=dvp depth=32", spec axes only
    SystemKind system;
    ExperimentOptions opts;
};

/**
 * Expand @p spec against @p base (which supplies every unlisted
 * knob) in deterministic axis-major order: system outermost, then
 * depth, gc, pool (the key table's order). Per-cell telemetry
 * outputs are cleared — cells would race on shared output paths.
 */
std::vector<GridCell> expandGrid(const GridSpec &spec,
                                 SystemKind base_system,
                                 const ExperimentOptions &base);

/**
 * The post-adapter record stream of one scan, decoded exactly once.
 * Holds the records in memory while `records * sizeof(TraceRecord)`
 * fits @p mem_budget_bytes; otherwise spools them to a temporary
 * native binary trace under @p spool_dir (removed on destruction).
 * factory() hands out independent replay sources, so any number of
 * grid cells (across threads) can consume the spool concurrently.
 */
class TraceSpool
{
  public:
    TraceSpool(const ScannedTrace &scan,
               std::uint64_t mem_budget_bytes,
               const std::string &spool_dir = "/tmp");
    ~TraceSpool();

    TraceSpool(const TraceSpool &) = delete;
    TraceSpool &operator=(const TraceSpool &) = delete;

    /** Rebuilds a fresh source over the spooled records. */
    TraceSourceFactory factory() const;

    std::uint64_t records() const { return count; }
    bool onDisk() const { return !path.empty(); }

  private:
    std::shared_ptr<const std::vector<TraceRecord>> mem;
    std::string path; //!< temp binary trace; empty = in memory
    std::uint64_t count = 0;
};

/** One cell's outcome, in expandGrid() order. */
struct GridCellResult
{
    std::string label;
    SystemKind system;
    SimResult result;
};

/**
 * Sweep @p spec over @p scan: spool the record stream once, then
 * replay every cell from the spool, @p jobs cells concurrently
 * (util/thread_pool.hh semantics: 0 = one per hardware thread).
 * Results come back in expandGrid() order regardless of @p jobs, and
 * each cell's SimResult is byte-identical to a standalone
 * runSystemOnScannedTrace() of the same configuration.
 */
std::vector<GridCellResult>
runGridOnScannedTrace(const ScannedTrace &scan, const GridSpec &spec,
                      SystemKind base_system,
                      const ExperimentOptions &base,
                      unsigned jobs = 1,
                      std::uint64_t mem_budget_bytes = 512ull << 20,
                      const std::string &spool_dir = "/tmp");

} // namespace zombie

#endif // ZOMBIE_SIM_GRID_HH
