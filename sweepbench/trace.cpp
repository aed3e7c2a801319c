// sweep_trace — the sweep benchmark's traced per-layer driver.
//
//   sweep_trace GRID-FLAGS --work-dir DIR [--fleet-workers N] [--seconds S]
//
// Runs one grid in-process through the engine's public API — expand,
// run_sweep, aggregate, write_json and, for fleets, Journal_writer —
// exactly as bench/anc_sweep wires them, and times every call from the
// outside:
//
//   - each builtin scenario is wrapped in a Timing_scenario registered in
//     a private registry, which spans every Scenario::run and counts the
//     heap allocations the run makes on its thread;
//   - expand, run_sweep, aggregate, write_json and every journal append
//     get a span;
//   - the program's own anc::obs stage timers and counters are read
//     through Executor_config::telemetry.
//
// Sweeps run on 4 executor threads, as the benchmark's anc_sweep runs do.
// Repetitions alternate an untraced run (builtin registry, telemetry
// off) with a traced one until --seconds have passed and at least two
// pairs ran, so the traced/untraced wall ratio is the tracing overhead.
// One single-threaded untraced run follows, for the parallel efficiency.
// Every repetition writes its sweep document to DIR/trace_doc.json and
// must reproduce the first one byte for byte: the wrapping registry and
// the telemetry must not move a byte.
//
// --fleet-workers N reproduces what anc_coordinator's workers do: N
// round-robin shards, each run by one single-threaded executor on its
// own thread and journaled into DIR/shardK.anj.
//
// stdout: one JSON object — per-repetition walls, the traced
// repetitions' per-layer metric values (arrays in repetition order),
// and the index of the representative (median-wall) traced repetition.
// Exit code 0, or 1 with a message on stderr.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sweep_cli.h"
#include "engine/engine.h"
#include "engine/journal.h"
#include "util/atomic_file.h"

// ------------------------------------------------------------ allocation
// Counting allocator, per thread: a span reads its own thread's counter
// before and after, so concurrent workers never see each other's
// allocations.

namespace {
thread_local std::uint64_t t_allocations = 0;
}

void* operator new(std::size_t size)
{
    ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

void* operator new(std::size_t size, std::align_val_t align)
{
    ++t_allocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment * alignment))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace anc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t sweep_threads = 4;
constexpr std::size_t min_pairs = 2;

double ms_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double ns_to_ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/// Small dense id of the calling thread (executor threads are fresh per
/// sweep, so ids never repeat within a process).
std::uint32_t thread_slot()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t slot = next.fetch_add(1);
    return slot;
}

// ------------------------------------------------------------ task spans

struct Task_span {
    const std::string* scenario = nullptr;
    std::string scheme;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t allocations = 0;
    std::uint32_t thread = 0;
};

class Span_log {
public:
    void add(Task_span span)
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        spans_.push_back(std::move(span));
    }

    std::vector<Task_span> take()
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        return std::exchange(spans_, {});
    }

private:
    std::mutex mutex_;
    std::vector<Task_span> spans_;
};

/// Forwards to a builtin scenario and records one span per run.  The
/// span's bookkeeping (the scheme copy, the locked push) happens after
/// the end time and allocation count are read.
class Timing_scenario final : public engine::Scenario {
public:
    Timing_scenario(const engine::Scenario& inner, Span_log& log)
        : inner_{inner}, log_{log}
    {
    }

    const std::string& name() const override { return inner_.name(); }
    const std::vector<std::string>& schemes() const override { return inner_.schemes(); }
    bool supports_scheme(std::string_view scheme) const override
    {
        return inner_.supports_scheme(scheme);
    }

    engine::Scenario_result run(const engine::Scenario_config& config,
                                std::uint64_t seed) const override
    {
        const std::uint64_t allocations = t_allocations;
        const Clock::time_point start = Clock::now();
        engine::Scenario_result result = inner_.run(config, seed);
        const Clock::time_point end = Clock::now();
        const std::uint64_t made = t_allocations - allocations;
        log_.add({&inner_.name(), config.scheme, start, end, made, thread_slot()});
        return result;
    }

private:
    const engine::Scenario& inner_;
    Span_log& log_;
};

/// The builtin scenarios, each behind a Timing_scenario.
engine::Scenario_registry timing_registry(Span_log& log)
{
    const engine::Scenario_registry& builtin = engine::Scenario_registry::builtin();
    engine::Scenario_registry registry;
    for (const std::string& name : builtin.names())
        registry.add(std::make_unique<Timing_scenario>(builtin.at(name), log));
    return registry;
}

// ------------------------------------------------------------ one run

struct Options {
    engine::Sweep_grid grid;
    std::uint64_t base_seed = 1;
    std::size_t fleet_workers = 0; ///< 0 = one in-process sweep
    double seconds = 10.0;
    std::string work_dir;
};

/// Layer timings of one run that only the driver can see.
struct Call_times {
    double expand_ms = 0.0;
    double run_ms = 0.0;
    double aggregate_ms = 0.0;
    double emit_ms = 0.0;
    double journal_ms = 0.0;
    std::uint64_t emit_bytes = 0;
    std::uint64_t journal_bytes = 0;
};

struct Run_output {
    double wall_ms = 0.0; ///< expand through write_json
    Call_times calls;
    std::vector<engine::Task_result> results;
    obs::Sweep_telemetry telemetry;
    std::size_t workers = 0;
};

std::string shard_path(const Options& options, std::size_t shard)
{
    return options.work_dir + "/shard" + std::to_string(shard) + ".anj";
}

/// What each anc_coordinator worker does for its shard: a single-thread
/// executor journaling every completed task, all shards concurrently.
/// Fills out.results (task order), the journal times and the telemetry.
void run_fleet(const Options& options, const std::vector<engine::Sweep_task>& tasks,
               const engine::Scenario_registry& registry, bool traced, Run_output& out)
{
    const std::size_t shards = options.fleet_workers;
    std::vector<std::vector<engine::Task_result>> shard_results(shards);
    std::vector<obs::Sweep_telemetry> telemetries(shards);
    std::vector<double> journal_ms(shards, 0.0);
    std::vector<std::exception_ptr> errors(shards);

    const auto run_shard = [&](std::size_t k) {
        try {
            engine::Journal_header header;
            header.grid_hash = engine::grid_fingerprint(options.grid);
            header.base_seed = options.base_seed;
            header.tasks = tasks.size();
            header.shard_index = k + 1;
            header.shard_count = shards;
            engine::Journal_writer journal{shard_path(options, k + 1), header, true};
            engine::Executor_config config;
            config.threads = 1;
            config.base_seed = options.base_seed;
            config.isolate_faults = true;
            config.telemetry = traced ? &telemetries[k] : nullptr;
            config.on_complete = [&](const engine::Task_result& result) {
                const Clock::time_point start = Clock::now();
                journal.append(result);
                journal_ms[k] += ms_between(start, Clock::now());
            };
            shard_results[k] = engine::run_sweep(
                engine::shard_tasks(tasks, k + 1, shards), registry, config);
            const Clock::time_point start = Clock::now();
            journal.flush();
            journal_ms[k] += ms_between(start, Clock::now());
        } catch (...) {
            errors[k] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < shards; ++k)
        threads.emplace_back(run_shard, k);
    for (std::thread& thread : threads)
        thread.join();
    for (const std::exception_ptr& error : errors)
        if (error)
            std::rethrow_exception(error);

    out.results.resize(tasks.size());
    for (std::size_t k = 0; k < shards; ++k) {
        for (engine::Task_result& result : shard_results[k])
            out.results[result.task.index] = std::move(result);
        out.calls.journal_ms += journal_ms[k];
        out.calls.journal_bytes += std::filesystem::file_size(shard_path(options, k + 1));
        if (traced) {
            out.telemetry.counters.merge(telemetries[k].counters);
            out.telemetry.stages.merge(telemetries[k].stages);
        }
    }
}

/// One pass over the grid: expand, run, aggregate, write the document.
Run_output run_once(const Options& options, const engine::Scenario_registry& registry,
                    bool traced, std::size_t threads, bool fleet, const std::string& doc)
{
    Run_output out;
    const Clock::time_point start = Clock::now();
    const std::vector<engine::Sweep_task> tasks = engine::expand(options.grid, registry);
    const Clock::time_point expanded = Clock::now();
    if (fleet) {
        out.workers = std::min(options.fleet_workers, tasks.size());
        run_fleet(options, tasks, registry, traced, out);
    } else {
        engine::Executor_config config;
        config.threads = threads;
        config.base_seed = options.base_seed;
        config.isolate_faults = true;
        config.telemetry = traced ? &out.telemetry : nullptr;
        out.workers = std::min(engine::resolve_thread_count(config), tasks.size());
        out.results = engine::run_sweep(tasks, registry, config);
    }
    const Clock::time_point ran = Clock::now();
    const std::vector<engine::Point_summary> points = engine::aggregate(out.results);
    const Clock::time_point aggregated = Clock::now();
    write_file_atomic(doc, [&](std::ostream& stream) {
        engine::write_json(stream, out.results, points);
    });
    const Clock::time_point emitted = Clock::now();
    out.calls.expand_ms = ms_between(start, expanded);
    out.calls.run_ms = ms_between(expanded, ran);
    out.calls.aggregate_ms = ms_between(ran, aggregated);
    out.calls.emit_ms = ms_between(aggregated, emitted);
    out.calls.emit_bytes = std::filesystem::file_size(doc);
    out.wall_ms = ms_between(start, emitted);
    return out;
}

// ------------------------------------------------------------ metrics

using Metrics = std::map<std::string, double>;

double nearest_rank(std::vector<double> values, double quantile)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(quantile * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics of one traced run.  Every additive time comes from
/// the same run, so Σ sim.run_ms.* − Σ stage ms == sim.untimed_ms exactly.
Metrics layer_metrics(const Run_output& run, const std::vector<Task_span>& spans)
{
    Metrics m;
    const obs::Stage_times& stages = run.telemetry.stages;
    const obs::Counters& counters = run.telemetry.counters;
    const auto stage_ms = [&](obs::Stage stage) {
        return ns_to_ms(stages.ns[static_cast<std::size_t>(stage)]);
    };
    const auto count = [&](obs::Counter counter) {
        return static_cast<double>(counters[counter]);
    };

    m["channel.mix_ms"] = stage_ms(obs::Stage::channel);
    m["channel.calls"] =
        static_cast<double>(stages.calls[static_cast<std::size_t>(obs::Stage::channel)]);
    m["phy.modulate_ms"] = stage_ms(obs::Stage::modulate);
    m["phy.packet_detect_ms"] = stage_ms(obs::Stage::packet_detect);
    m["phy.interference_analyze_ms"] = stage_ms(obs::Stage::interference_analyze);
    m["phy.demodulate_ms"] = stage_ms(obs::Stage::demodulate);
    m["phy.pilot_search_ms"] = stage_ms(obs::Stage::pilot_search);
    m["phy.pilot_hit_ratio"] =
        ratio(count(obs::Counter::pilot_hits), count(obs::Counter::pilot_searches));
    m["phy.crc_pass_ratio"] =
        ratio(count(obs::Counter::crc_pass),
              count(obs::Counter::crc_pass) + count(obs::Counter::crc_fail));
    m["core.interference_decode_ms"] = stage_ms(obs::Stage::interference_decode);
    m["core.amplitude_estimate_ms"] = stage_ms(obs::Stage::amplitude_estimate);
    m["core.decode_calls"] = count(obs::Counter::decode_calls);
    const double useful =
        count(obs::Counter::rx_clean) + count(obs::Counter::rx_decoded_interference);
    const double receives = useful + count(obs::Counter::rx_no_packet)
                            + count(obs::Counter::rx_forward_candidate)
                            + count(obs::Counter::rx_failed);
    m["core.rx_useful_ratio"] = ratio(useful, receives);
    m["fec.decode_ms"] = stage_ms(obs::Stage::fec_decode);

    double stage_total_ms = 0.0;
    for (std::size_t i = 0; i < obs::stage_count; ++i)
        stage_total_ms += ns_to_ms(stages.ns[i]);

    // Scenario::run spans: per (scenario, scheme) sums, percentiles,
    // allocations, and per-thread busy time and inter-task gaps.
    std::vector<double> task_ms;
    double run_total_ms = 0.0;
    double allocations = 0.0;
    std::map<std::uint32_t, std::vector<const Task_span*>> by_thread;
    for (const Task_span& span : spans) {
        const double ms = ms_between(span.start, span.end);
        task_ms.push_back(ms);
        run_total_ms += ms;
        allocations += static_cast<double>(span.allocations);
        m["sim.run_ms." + *span.scenario + "." + span.scheme] += ms;
        by_thread[span.thread].push_back(&span);
    }
    m["sim.task_p50_ms"] = nearest_rank(task_ms, 0.50);
    m["sim.task_p95_ms"] = nearest_rank(task_ms, 0.95);
    m["sim.untimed_ms"] = run_total_ms - stage_total_ms;
    m["sim.heap_allocs_per_task"] = ratio(allocations, static_cast<double>(spans.size()));
    double airtime = 0.0;
    double queue_ms = 0.0;
    for (const engine::Task_result& result : run.results) {
        airtime += result.result.metrics.airtime_symbols;
        queue_ms += ns_to_ms(result.result.telemetry.queue_ns);
    }
    m["sim.airtime_samples"] = airtime;

    double gaps_ms = 0.0;
    std::vector<double> busy_ms;
    for (auto& [thread, thread_spans] : by_thread) {
        std::sort(thread_spans.begin(), thread_spans.end(),
                  [](const Task_span* a, const Task_span* b) { return a->start < b->start; });
        double busy = 0.0;
        for (std::size_t i = 0; i < thread_spans.size(); ++i) {
            busy += ms_between(thread_spans[i]->start, thread_spans[i]->end);
            if (i > 0)
                gaps_ms += ms_between(thread_spans[i - 1]->end, thread_spans[i]->start);
        }
        busy_ms.push_back(busy);
    }
    const double busy_max = busy_ms.empty()
                                ? 0.0
                                : *std::max_element(busy_ms.begin(), busy_ms.end());
    const double busy_mean =
        ratio(run_total_ms, static_cast<double>(std::max<std::size_t>(busy_ms.size(), 1)));

    m["engine.expand_ms"] = run.calls.expand_ms;
    m["engine.queue_wait_ms"] =
        ratio(queue_ms, static_cast<double>(std::max<std::size_t>(run.results.size(), 1)));
    m["engine.dispatch_overhead_ms"] = gaps_ms;
    m["engine.worker_busy_share"] =
        ratio(run_total_ms, static_cast<double>(run.workers) * run.calls.run_ms);
    m["engine.aggregate_ms"] = run.calls.aggregate_ms;
    m["engine.emit_json_ms"] = run.calls.emit_ms;
    m["engine.emit_bytes"] = static_cast<double>(run.calls.emit_bytes);
    m["engine.journal_append_ms"] = run.calls.journal_ms;
    m["engine.journal_bytes"] = static_cast<double>(run.calls.journal_bytes);

    // The executor's workers seen as a fleet: threads in-process, shard
    // threads when emulating one (run.py overrides these with the real
    // coordinator's manifest on the fleet workload).
    m["fleet.launches"] = 0.0;
    m["fleet.worker_busy_max_ms"] = busy_max;
    m["fleet.shard_imbalance"] = ratio(busy_max, busy_mean);
    m["fleet.supervision_ms"] = run.calls.run_ms - busy_max;

    // Reconciliation inputs, reported next to the metrics.
    m["check.run_ms_total"] = run_total_ms;
    m["check.stage_ms_total"] = stage_total_ms;
    m["check.tasks_traced"] = static_cast<double>(spans.size());
    return m;
}

std::string read_file(const std::string& path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void write_array(std::ostream& out, const std::vector<double>& values)
{
    out << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.17g", values[i]);
        out << (i ? "," : "") << buffer;
    }
    out << ']';
}

int usage(const char* error)
{
    std::fprintf(stderr,
                 "error: %s\n\nusage: sweep_trace GRID-FLAGS --work-dir DIR "
                 "[--fleet-workers N] [--seconds S]\n\n%s",
                 error, bench::Grid_cli::usage_text);
    return 1;
}

int run(const Options& options)
{
    Span_log log;
    const engine::Scenario_registry traced_registry = timing_registry(log);
    const engine::Scenario_registry& builtin = engine::Scenario_registry::builtin();
    const bool fleet = options.fleet_workers > 0;
    const std::string doc = options.work_dir + "/trace_doc.json";

    std::string reference;
    bool identical = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto check = [&](const Run_output& run) {
        const std::string bytes = read_file(doc);
        if (reference.empty())
            reference = bytes;
        identical = identical && bytes == reference;
        attempted += run.results.size();
        for (const engine::Task_result& result : run.results)
            failed += result.status == engine::Task_status::ok ? 0 : 1;
    };

    // Warm-up: registry build, lazily packed pilots, page cache.
    check(run_once(options, builtin, false, sweep_threads, fleet, doc));

    std::vector<double> plain_ms, traced_ms;
    std::vector<Metrics> traced_metrics;
    const Clock::time_point deadline =
        Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options.seconds));
    for (std::size_t pair = 0; pair < min_pairs || Clock::now() < deadline; ++pair) {
        for (int side = 0; side < 2; ++side) {
            const bool traced = (side == 0) == (pair % 2 == 1);
            log.take();
            const Run_output out = run_once(options, traced ? traced_registry : builtin,
                                            traced, sweep_threads, fleet, doc);
            check(out);
            if (traced) {
                traced_ms.push_back(out.wall_ms);
                traced_metrics.push_back(layer_metrics(out, log.take()));
            } else {
                plain_ms.push_back(out.wall_ms);
            }
        }
    }
    const Run_output single = run_once(options, builtin, false, 1, false, doc);
    check(single);

    // The representative traced run: median wall (lower median).
    std::vector<std::size_t> order(traced_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return traced_ms[a] < traced_ms[b]; });
    const std::size_t representative = order[(order.size() - 1) / 2];
    const std::size_t workers = fleet ? options.fleet_workers : sweep_threads;
    const double plain_median = nearest_rank(plain_ms, 0.5);

    // Every traced run of one grid reports the same metric names.
    std::map<std::string, std::vector<double>> series;
    for (const Metrics& metrics : traced_metrics)
        for (const auto& [name, value] : metrics)
            series[name].push_back(value);
    series["engine.parallel_efficiency"].assign(
        traced_metrics.size(),
        ratio(single.wall_ms, static_cast<double>(workers) * plain_median));

    std::ostringstream out;
    out << "{\"doc\":\"" << doc << "\",\"docs_identical\":" << (identical ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"workers\":" << workers << ",\"representative\":" << representative
        << ",\"plain_wall_ms\":";
    write_array(out, plain_ms);
    out << ",\"traced_wall_ms\":";
    write_array(out, traced_ms);
    out << ",\"single_thread_wall_ms\":" << single.wall_ms << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, values] : series) {
        out << (first ? "" : ",") << '"' << name << "\":";
        write_array(out, values);
        first = false;
    }
    out << "}}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Options options;
    options.grid.scenarios.clear();
    bench::Grid_cli grid_cli{options.grid};
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const std::function<std::string()> value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument{arg + " needs a value"};
                return argv[++i];
            };
            if (grid_cli.try_parse(arg, value))
                continue;
            if (arg == "--fleet-workers")
                options.fleet_workers = bench::parse_size_axis(value()).front();
            else if (arg == "--seconds")
                options.seconds = std::stod(value());
            else if (arg == "--work-dir")
                options.work_dir = value();
            else
                return usage(("unknown argument " + arg).c_str());
        }
        options.base_seed = grid_cli.base_seed;
        if (options.grid.scenarios.empty())
            return usage("at least one --scenario is required");
        if (options.work_dir.empty())
            return usage("--work-dir DIR is required");
        return run(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "sweep_trace: %s\n", error.what());
        return 1;
    }
}
