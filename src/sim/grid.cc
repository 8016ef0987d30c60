#include "sim/grid.hh"

#include <algorithm>
#include <cstdlib>
#include <unistd.h>

#include "trace/io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace zombie
{

namespace
{

/** Split @p text at @p sep; a trailing separator adds no part. */
std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> parts;
    while (!text.empty()) {
        const std::size_t at = text.find(sep);
        parts.emplace_back(text.substr(0, at));
        text = at == std::string_view::npos ? std::string_view{}
                                            : text.substr(at + 1);
    }
    return parts;
}

/**
 * Set axis @p name to @p value on @p cell: the system axis picks the
 * cell's system, every other axis parses through its key row. Fatal
 * on a value the axis rejects.
 */
void
applyAxis(const std::string &name, const std::string &value,
          GridCell &cell)
{
    if (name == "system") {
        cell.system = systemKindFromString(value);
        return;
    }
    for (const ExperimentKey &key : experimentKeys()) {
        if (key.axis && name == key.axis) {
            if (const std::string err = key.set(cell.opts, value);
                !err.empty())
                zombie_fatal("grid axis '", name, "': ", err);
            return;
        }
    }
    zombie_panic("grid axis '", name, "' has no key row");
}

} // namespace

std::uint64_t
GridSpec::cells() const
{
    std::uint64_t n = 1;
    for (const Axis &axis : axes)
        n *= axis.values.size();
    return n;
}

GridSpec
parseGridSpec(const std::string &text)
{
    // Every axis, outermost first; the unlisted ones are dropped last.
    GridSpec spec;
    std::string known = "system";
    spec.axes.push_back({known, {}});
    for (const ExperimentKey &key : experimentKeys()) {
        if (key.axis) {
            spec.axes.push_back({key.axis, {}});
            known += std::string("|") + key.axis;
        }
    }

    GridCell scratch{"", SystemKind::Baseline, {}};
    for (const std::string &clause : split(text, ';')) {
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            zombie_fatal("grid clause '", clause,
                         "' has no '=' (want key=v1,v2,..)");
        const std::string key = clause.substr(0, eq);
        const auto fields =
            split(std::string_view(clause).substr(eq + 1), ',');
        if (fields.empty() || (fields.size() == 1 && fields[0].empty()))
            zombie_fatal("grid axis '", key, "' has no values");

        const auto axis = std::find_if(
            spec.axes.begin(), spec.axes.end(),
            [&key](const GridSpec::Axis &a) { return a.name == key; });
        if (axis == spec.axes.end())
            zombie_fatal("unknown grid axis '", key, "' (", known, ")");
        for (const std::string &field : fields) {
            applyAxis(key, field, scratch); // validate, fatal on typo
            axis->values.push_back(field);
        }
    }
    std::erase_if(spec.axes, [](const GridSpec::Axis &a) {
        return a.values.empty();
    });
    return spec;
}

std::vector<GridCell>
expandGrid(const GridSpec &spec, SystemKind base_system,
           const ExperimentOptions &base)
{
    // Telemetry paths are per-run artifacts; concurrent cells
    // writing one file would interleave, so the sweep drops them.
    std::vector<GridCell> cells{{"", base_system, base}};
    cells[0].opts.statsCsv.clear();
    cells[0].opts.statsJson.clear();
    cells[0].opts.traceOut.clear();
    cells[0].opts.statsDump.clear();

    // Each axis multiplies the cells so far, so the first listed
    // axis ends up outermost.
    for (const GridSpec::Axis &axis : spec.axes) {
        std::vector<GridCell> next;
        next.reserve(cells.size() * axis.values.size());
        for (const GridCell &cell : cells) {
            for (const std::string &value : axis.values) {
                GridCell &out = next.emplace_back(cell);
                applyAxis(axis.name, value, out);
                out.label += (out.label.empty() ? "" : " ") +
                             axis.name + '=' + value;
            }
        }
        cells = std::move(next);
    }
    if (spec.axes.empty())
        cells[0].label = "base";
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

    ScannedTrace spooled = scan;
    spooled.factory = spool.factory();

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
