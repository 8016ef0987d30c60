#include "sim/grid.hh"

#include <charconv>
#include <cstdlib>
#include <unistd.h>

#include "trace/io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace zombie
{

namespace
{

std::uint64_t
parseAxisUint(std::string_view field, const std::string &spec)
{
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || ptr != field.data() + field.size())
        zombie_fatal("bad number '", std::string(field),
                     "' in grid spec '", spec, "'");
    return value;
}

} // namespace

std::uint64_t
GridSpec::cells() const
{
    const auto axis = [](std::size_t n) {
        return static_cast<std::uint64_t>(n > 0 ? n : 1);
    };
    return axis(systems.size()) * axis(depths.size()) *
           axis(gcPolicies.size()) * axis(pools.size());
}

GridSpec
parseGridSpec(const std::string &text)
{
    GridSpec spec;
    std::string_view rest = text;
    while (!rest.empty()) {
        const std::size_t semi = rest.find(';');
        std::string_view clause = rest.substr(0, semi);
        rest = semi == std::string_view::npos
                   ? std::string_view{}
                   : rest.substr(semi + 1);
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string_view::npos)
            zombie_fatal("grid clause '", std::string(clause),
                         "' has no '=' (want key=v1,v2,..)");
        const std::string_view key = clause.substr(0, eq);
        std::string_view values = clause.substr(eq + 1);

        std::vector<std::string_view> fields;
        while (!values.empty()) {
            const std::size_t comma = values.find(',');
            fields.push_back(values.substr(0, comma));
            values = comma == std::string_view::npos
                         ? std::string_view{}
                         : values.substr(comma + 1);
        }
        if (fields.empty() ||
            (fields.size() == 1 && fields[0].empty()))
            zombie_fatal("grid axis '", std::string(key),
                         "' has no values");

        for (const std::string_view f : fields) {
            const std::string value(f);
            if (key == "system") {
                systemKindFromString(value); // validate, fatal on typo
                spec.systems.push_back(value);
            } else if (key == "depth") {
                spec.depths.push_back(static_cast<std::uint32_t>(
                    parseAxisUint(f, text)));
            } else if (key == "gc") {
                if (value != "auto" && value != "greedy" &&
                    value != "popularity" &&
                    value != "wear:greedy" &&
                    value != "wear:popularity")
                    zombie_fatal("unknown gc policy '", value,
                                 "' in grid spec (auto|greedy|"
                                 "popularity|wear:greedy|"
                                 "wear:popularity)");
                spec.gcPolicies.push_back(value);
            } else if (key == "pool") {
                spec.pools.push_back(parseAxisUint(f, text));
            } else {
                zombie_fatal("unknown grid axis '", std::string(key),
                             "' (system|depth|gc|pool)");
            }
        }
    }
    return spec;
}

std::vector<GridCell>
expandGrid(const GridSpec &spec, SystemKind base_system,
           const ExperimentOptions &base)
{
    // Telemetry paths are per-run artifacts; concurrent cells
    // writing one file would interleave, so the sweep drops them.
    ExperimentOptions cell_base = base;
    cell_base.statsCsv.clear();
    cell_base.statsJson.clear();
    cell_base.traceOut.clear();
    cell_base.statsDump.clear();

    const auto appendAxis = [](std::string &label,
                               const std::string &key,
                               const std::string &value) {
        if (!label.empty())
            label += ' ';
        label += key + '=' + value;
    };

    std::vector<GridCell> cells;
    const std::vector<std::string> one{std::string()};
    const auto &systems =
        spec.systems.empty() ? one : spec.systems;
    const auto &gcs =
        spec.gcPolicies.empty() ? one : spec.gcPolicies;
    const std::vector<std::uint64_t> no_u64{0};
    const auto depths64 = [&] {
        std::vector<std::uint64_t> v;
        for (const auto d : spec.depths)
            v.push_back(d);
        return v;
    }();
    const auto &depths = spec.depths.empty() ? no_u64 : depths64;
    const auto &pools = spec.pools.empty() ? no_u64 : spec.pools;

    for (const auto &system : systems) {
        for (const auto depth : depths) {
            for (const auto &gc : gcs) {
                for (const auto pool : pools) {
                    GridCell cell;
                    cell.system = system.empty()
                                      ? base_system
                                      : systemKindFromString(system);
                    cell.opts = cell_base;
                    if (!system.empty())
                        appendAxis(cell.label, "system", system);
                    if (!spec.depths.empty()) {
                        cell.opts.queueDepth =
                            static_cast<std::uint32_t>(depth);
                        appendAxis(cell.label, "depth",
                                   std::to_string(depth));
                    }
                    if (!gc.empty()) {
                        cell.opts.gcPolicy = gc;
                        appendAxis(cell.label, "gc", gc);
                    }
                    if (!spec.pools.empty()) {
                        cell.opts.poolCapacity = pool;
                        appendAxis(cell.label, "pool",
                                   std::to_string(pool));
                    }
                    if (cell.label.empty())
                        cell.label = "base";
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    return cells;
}

TraceSpool::TraceSpool(const ScannedTrace &scan,
                       std::uint64_t mem_budget_bytes,
                       const std::string &spool_dir)
{
    const auto src = scan.factory();
    const std::uint64_t budget_records =
        mem_budget_bytes / sizeof(TraceRecord);

    auto records = std::make_shared<std::vector<TraceRecord>>();
    std::unique_ptr<TraceWriter> writer;
    TraceRecord rec;
    while (src->next(rec)) {
        if (!writer && records->size() >= budget_records) {
            // Budget exceeded: spill everything buffered so far to
            // a temporary binary trace and stream the rest there.
            std::string name =
                spool_dir + "/zombie_spool_XXXXXX";
            const int fd = mkstemp(name.data());
            if (fd < 0)
                zombie_fatal("cannot create spool file in ",
                             spool_dir);
            ::close(fd);
            path = name;
            writer = std::make_unique<TraceWriter>(
                path, TraceFormat::Binary);
            for (const auto &buffered : *records)
                writer->write(buffered);
            records->clear();
            records->shrink_to_fit();
        }
        if (writer)
            writer->write(rec);
        else
            records->push_back(rec);
        ++count;
    }
    if (writer)
        writer->close();
    else
        mem = std::move(records);
}

TraceSpool::~TraceSpool()
{
    if (!path.empty())
        std::remove(path.c_str());
}

TraceSourceFactory
TraceSpool::factory() const
{
    if (!path.empty()) {
        const std::string spool_path = path;
        return [spool_path] {
            return std::make_unique<TraceReader>(spool_path);
        };
    }
    const auto records = mem;
    return [records]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<VectorSource>(records);
    };
}

std::vector<GridCellResult>
runGridOnScannedTrace(const ScannedTrace &scan, const GridSpec &spec,
                      SystemKind base_system,
                      const ExperimentOptions &base, unsigned jobs,
                      std::uint64_t mem_budget_bytes,
                      const std::string &spool_dir)
{
    const TraceSpool spool(scan, mem_budget_bytes, spool_dir);
    const std::vector<GridCell> cells =
        expandGrid(spec, base_system, base);

    ScannedTrace spooled;
    spooled.factory = spool.factory();
    spooled.records = scan.records;
    spooled.footprintPages = scan.footprintPages;
    spooled.summary = scan.summary;
    spooled.tenantPages = scan.tenantPages;

    auto results = parallelMap(
        ThreadPool::resolveJobs(jobs), cells.size(),
        [&](std::size_t i) {
            return runSystemOnScannedTrace(spooled, cells[i].system,
                                           cells[i].opts);
        });

    std::vector<GridCellResult> out;
    out.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        out.push_back({cells[i].label, cells[i].system,
                       std::move(results[i])});
    return out;
}

} // namespace zombie
