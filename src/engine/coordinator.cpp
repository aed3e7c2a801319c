#include "engine/coordinator.h"

#include <cctype>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace anc::engine {

namespace {

using clock = std::chrono::steady_clock;

constexpr std::size_t no_slot = std::numeric_limits<std::size_t>::max();

/// Supervision state of one shard: its tailer, the attached child (when
/// running), and the unique-entry count that decides completeness.
/// `adopted` is running without a child of ours: a writer that outlived
/// a previous coordinator.
struct Shard_state {
    enum class Status { pending, running, adopted, done, failed };

    std::size_t index = 1; ///< 1-based shard number
    std::size_t task_count = 0;
    Status status = Status::pending;
    std::size_t attempts = 0;
    std::size_t slot = no_slot;
    util::Subprocess child;
    Journal_tailer tailer;
    clock::time_point last_progress{};
    /// Unique task indices of this shard observed so far (merged or
    /// waiting in the reorder window).  == task_count means complete.
    std::size_t have = 0;
    bool header_checked = false;
    /// The current attempt started without --resume (no prior journal):
    /// a stall before the header appears is a STARTUP stall.
    bool fresh_attempt = false;
    /// Relaunch escalation (Coordinator_config::relaunch_backoff).
    util::Backoff backoff;
    clock::time_point next_launch{}; ///< epoch = launchable now
};

/// Tasks a round-robin shard K/S owns out of `total` (the number of
/// global indices with index % S == K-1).
std::size_t shard_task_count(std::size_t total, std::size_t shard_index,
                             std::size_t shard_count)
{
    const std::size_t first = shard_index - 1;
    return total > first ? (total - first + shard_count - 1) / shard_count : 0;
}

} // namespace

std::string shard_journal_path(const std::string& work_dir, std::size_t shard_index)
{
    return work_dir + "/shard" + std::to_string(shard_index) + ".anj";
}

namespace {

/// Shard K's worker stderr log, whose lock tells whether any process
/// of a worker tree launched for K is still alive (util::Spawn_options).
std::string worker_log_path(const std::string& work_dir, std::size_t shard_index)
{
    return work_dir + "/worker_shard" + std::to_string(shard_index) + ".log";
}

/// Make `mirror` safe to append to.  A link severed mid-line leaves a
/// partial final line, and the next attempt's first line would splice
/// onto it.  A partial FIRST line (the tear hit the magic) is truncated
/// away: terminated, it would fail the tailer's magic check for good.
/// A later partial line is terminated with '\n', so it becomes one
/// corrupt line the tailer drops.  The tailer consumes complete lines
/// only, so it has read none of the bytes this touches.
void neutralize_torn_tail(const std::string& mirror)
{
    const int fd = ::open(mirror.c_str(), O_RDWR | O_APPEND);
    if (fd < 0)
        return; // no mirror yet
    struct stat info{};
    char last = '\n';
    if (::fstat(fd, &info) == 0 && info.st_size > 0
        && ::pread(fd, &last, 1, info.st_size - 1) == 1 && last != '\n') {
        char head[64];
        const ssize_t got = ::pread(fd, head, sizeof head, 0);
        const bool first_line_complete =
            got > 0 && std::memchr(head, '\n', static_cast<std::size_t>(got));
        const bool neutralized = first_line_complete ? ::write(fd, "\n", 1) == 1
                                                     : ::ftruncate(fd, 0) == 0;
        if (!neutralized) {
            ::close(fd);
            throw std::runtime_error{"cannot neutralize the torn tail of " + mirror};
        }
    }
    ::close(fd);
}

/// The launchers' shared stdio rule (exec_launcher's comment).  Returns
/// whether the worker's stdout is its shard's mirror.
bool worker_stdio(const Worker_request& req, const std::string& work_dir,
                  util::Spawn_options& options)
{
    const std::string mirror = shard_journal_path(work_dir, req.shard_index);
    const bool streamed = req.journal_path != mirror;
    if (streamed)
        neutralize_torn_tail(mirror);
    options.stdout_path = streamed ? mirror : "/dev/null";
    options.stderr_path = worker_log_path(work_dir, req.shard_index);
    return streamed;
}

/// True when `a` and `b` name the same existing directory.
bool same_directory(const std::string& a, const std::string& b)
{
    struct stat sa{}, sb{};
    if (::stat(a.c_str(), &sa) != 0 || ::stat(b.c_str(), &sb) != 0)
        return a == b;
    return sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

bool is_placeholder_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Replace every `{name}` placeholder of `text` in one left-to-right
/// pass (substituted values are never rescanned).  `{` after `$` is
/// shell syntax and stays; so does a brace pair around anything but a
/// placeholder name.  Unknown names are dropped and reported through
/// `unknown`.
std::string substitute(const std::string& text,
                       const std::map<std::string, std::string>& values,
                       std::vector<std::string>* unknown = nullptr)
{
    std::string out;
    out.reserve(text.size());
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t open = text.find('{', pos);
        if (open == std::string::npos)
            break;
        std::size_t close = open + 1;
        while (close < text.size() && is_placeholder_char(text[close]))
            ++close;
        const bool placeholder = close > open + 1 && close < text.size()
                              && text[close] == '}'
                              && (open == 0 || text[open - 1] != '$');
        out.append(text, pos, (placeholder ? open : close) - pos);
        pos = close;
        if (!placeholder)
            continue;
        const std::string name = text.substr(open + 1, close - open - 1);
        const auto found = values.find(name);
        if (found != values.end())
            out += found->second;
        else if (unknown != nullptr)
            unknown->push_back(name);
        ++pos; // the closing brace
    }
    out.append(text, pos, std::string::npos);
    return out;
}

} // namespace

Worker_launcher exec_launcher(std::string worker_bin,
                              std::vector<std::string> grid_argv,
                              std::size_t worker_threads, std::string work_dir)
{
    return [worker_bin = std::move(worker_bin), grid_argv = std::move(grid_argv),
            worker_threads, work_dir = std::move(work_dir)](const Worker_request& req) {
        std::vector<std::string> argv;
        argv.reserve(grid_argv.size() + 9);
        argv.push_back(worker_bin);
        argv.insert(argv.end(), grid_argv.begin(), grid_argv.end());
        argv.push_back("--quiet");
        argv.push_back("--threads");
        argv.push_back(std::to_string(worker_threads));
        argv.push_back("--shard");
        argv.push_back(std::to_string(req.shard_index) + "/"
                       + std::to_string(req.shard_count));
        // --resume implies journaling into the same file, so a relaunch
        // keeps every task the dead worker already completed.
        argv.push_back(req.resume ? "--resume" : "--journal");
        argv.push_back(req.journal_path);
        util::Spawn_options options;
        if (worker_stdio(req, work_dir, options))
            argv.push_back("--journal-stream");
        return util::Subprocess::spawn(argv, options);
    };
}

Worker_launcher template_launcher(const std::string& command_template,
                                  std::string worker_bin,
                                  const std::vector<std::string>& grid_argv,
                                  std::size_t worker_threads, std::string work_dir)
{
    std::string grid;
    for (const std::string& flag : grid_argv)
        grid += (grid.empty() ? "" : " ") + flag;
    const auto values_for = [worker_bin = std::move(worker_bin),
                             grid = std::move(grid),
                             worker_threads](const Worker_request& req) {
        return std::map<std::string, std::string>{
            {"worker", worker_bin},
            {"grid", grid},
            {"threads", std::to_string(worker_threads)},
            {"shard", std::to_string(req.shard_index)},
            {"shards", std::to_string(req.shard_count)},
            {"journal", req.journal_path},
            {"journal_flag", req.resume ? "--resume" : "--journal"},
            {"attempt", std::to_string(req.attempt)},
            {"slot", std::to_string(req.slot)}};
    };
    std::vector<std::string> unknown;
    substitute(command_template, values_for(Worker_request{}), &unknown);
    if (!unknown.empty())
        throw std::invalid_argument{"--launch-template: unknown placeholder {"
                                    + unknown.front() + "}"};

    return [command_template, values_for,
            work_dir = std::move(work_dir)](const Worker_request& req) {
        util::Spawn_options options;
        worker_stdio(req, work_dir, options);
        return util::Subprocess::spawn(
            {"/bin/sh", "-c", substitute(command_template, values_for(req))}, options);
    };
}

Coordinator_outcome run_coordinated(const Sweep_grid& grid,
                                    const Scenario_registry& registry,
                                    std::uint64_t base_seed,
                                    const Coordinator_config& config)
{
    if (!config.launcher)
        throw std::invalid_argument{"run_coordinated: a launcher is required"};
    if (config.workers == 0)
        throw std::invalid_argument{"run_coordinated: workers must be >= 1"};
    if (config.max_shard_attempts == 0)
        throw std::invalid_argument{"run_coordinated: max_shard_attempts must be >= 1"};
    if (config.work_dir.empty())
        throw std::invalid_argument{"run_coordinated: work_dir is required"};
    // A zero window would declare every worker stalled on its first poll.
    if (config.heartbeat_timeout.count() <= 0)
        throw std::invalid_argument{"run_coordinated: heartbeat_timeout must be > 0"};

    const auto start = clock::now();
    const std::vector<Sweep_task> all_tasks = expand(grid, registry);
    const std::size_t total = all_tasks.size();
    const std::size_t shard_count = config.shards == 0 ? config.workers : config.shards;
    const std::size_t workers = config.workers;
    // Workers journal outside work_dir only when the directory really
    // differs: a worker streaming into its own journal would feed
    // itself.
    const std::string& worker_journal_dir =
        config.worker_journal_dir.empty()
                || same_directory(config.worker_journal_dir, config.work_dir)
            ? config.work_dir
            : config.worker_journal_dir;

    Coordinator_outcome outcome;
    Coordinator_stats& stats = outcome.stats;
    stats.shards = shard_count;
    stats.workers = workers;
    stats.slots.resize(workers);

    std::vector<Shard_state> shards(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
        Shard_state& shard = shards[k];
        shard.index = k + 1;
        shard.task_count = shard_task_count(total, shard.index, shard_count);
        shard.tailer = Journal_tailer{shard_journal_path(config.work_dir, shard.index)};
        shard.backoff = util::Backoff{config.relaunch_backoff,
                                      base_seed ^ (0xf1ee7u + shard.index)};
        if (shard.task_count == 0)
            shard.status = Shard_state::Status::done; // more shards than tasks
    }

    // Slot bookkeeping: which shard occupies a slot, whether the slot
    // has run anything yet (the steal/initial distinction), and when
    // the current child attached (busy_ns).
    std::vector<std::size_t> slot_shard(workers, no_slot);
    std::vector<char> slot_used(workers, 0);
    std::vector<clock::time_point> slot_attached(workers);

    // The continuous-merge reorder window: journal entries keyed by
    // global index, drained whenever the head of the window is the next
    // index to emit.  Dedup rule matches preload_from_entries: the
    // first occurrence of an index wins.
    std::map<std::size_t, Journal_entry> ready;
    std::size_t next_index = 0;
    std::size_t merged = 0;

    const auto poll_shard = [&](Shard_state& shard) {
        std::vector<Journal_entry> fresh = shard.tailer.poll();
        if (shard.tailer.have_header() && !shard.header_checked) {
            std::string why;
            if (!journal_compatible(shard.tailer.header(), grid, base_seed, total,
                                    shard.index, shard_count, &why))
                throw std::runtime_error{"run_coordinated: " + shard.tailer.path()
                                         + ": " + why};
            shard.header_checked = true;
        }
        bool advanced = false;
        for (Journal_entry& entry : fresh) {
            // Ignore rows that cannot belong to this shard (a foreign or
            // stale journal) and duplicates of rows already seen.
            if (entry.index >= total
                || entry.index % shard_count != shard.index - 1)
                continue;
            if (entry.index < next_index || ready.count(entry.index) != 0)
                continue;
            ready.emplace(entry.index, std::move(entry));
            ++shard.have;
            advanced = true;
            if (shard.slot != no_slot)
                ++stats.slots[shard.slot].tasks_journaled;
        }
        if (advanced)
            shard.last_progress = clock::now();
    };

    const auto drain_merge = [&]() {
        for (auto it = ready.begin(); it != ready.end() && it->first == next_index;
             it = ready.erase(it), ++next_index) {
            Journal_entry& entry = it->second;
            Task_result result;
            result.task = all_tasks[entry.index];
            result.seed = entry.seed;
            result.status = entry.status;
            result.attempts = entry.attempts;
            result.error = std::move(entry.error);
            result.result = std::move(entry.result);
            result.resumed = true;
            if (result.status == Task_status::ok)
                ++outcome.tally.ok;
            else if (result.status == Task_status::error)
                ++outcome.tally.errors;
            ++merged;
            if (config.on_result)
                config.on_result(result);
            if (config.collect_results)
                outcome.results.push_back(std::move(result));
            if (config.on_progress)
                config.on_progress(merged, total);
        }
    };

    const auto detach_slot = [&](Shard_state& shard) {
        const std::size_t slot = shard.slot;
        stats.slots[slot].busy_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now()
                                                                 - slot_attached[slot])
                .count());
        slot_shard[slot] = no_slot;
        shard.slot = no_slot;
        shard.child = util::Subprocess{};
    };

    /// The child is reaped; drain its journal one last time and decide:
    /// complete -> done, incomplete -> failed attempt (reassign or give
    /// up).  A worker that hung AFTER finishing its shard still counts
    /// as done — journal completeness, not exit status, is the verdict.
    const auto settle_exit = [&](Shard_state& shard) {
        poll_shard(shard);
        const std::size_t slot = shard.slot;
        if (shard.have == shard.task_count) {
            shard.status = Shard_state::Status::done;
            ++stats.slots[slot].shards_completed;
        } else {
            ++stats.worker_failures;
            ++stats.slots[slot].failures;
            if (shard.attempts >= config.max_shard_attempts) {
                shard.status = Shard_state::Status::failed;
            } else {
                shard.status = Shard_state::Status::pending;
                // Escalating relaunch delay: a crash-looping worker must
                // not burn the attempt budget in milliseconds.
                shard.next_launch = clock::now() + shard.backoff.next();
                ++stats.backoff_waits;
            }
        }
        detach_slot(shard);
    };

    // ---- start-up: each shard's state comes from its files -----------
    // Complete journal: done.  Incomplete with its worker log locked: a
    // live writer (an orphan of a previous coordinator), adopted and
    // tailed, not launched over.  Otherwise pending: launched at once.
    // The lock is probed before the journal is read, so a writer seen
    // dead has left all it wrote in the journal.
    for (Shard_state& shard : shards) {
        if (shard.status != Shard_state::Status::pending)
            continue; // zero-task shard
        const bool alive =
            util::stderr_lock_held(worker_log_path(config.work_dir, shard.index));
        poll_shard(shard);
        if (shard.have == shard.task_count) {
            shard.status = Shard_state::Status::done;
        } else if (alive) {
            shard.status = Shard_state::Status::adopted;
            shard.last_progress = start;
            ++stats.adoptions;
        }
    }

    bool cancelled = false;
    while (true) {
        if (config.cancel != nullptr
            && config.cancel->load(std::memory_order_relaxed)) {
            cancelled = true;
            break;
        }

        // ---- supervise: poll journals, reap exits, kill stalls -------
        for (Shard_state& shard : shards) {
            if (shard.status == Shard_state::Status::running) {
                poll_shard(shard);
                // A fresh worker that has not produced its journal
                // header yet is in STARTUP, where stalls (broken
                // launcher, unreachable host) are detectable on a
                // faster clock than mid-run ones.
                const bool startup =
                    shard.fresh_attempt && !shard.tailer.have_header();
                const auto stall_limit =
                    startup && config.startup_timeout.count() > 0
                        ? config.startup_timeout
                        : config.heartbeat_timeout;
                if (shard.child.try_wait()) {
                    settle_exit(shard);
                } else if (clock::now() - shard.last_progress > stall_limit) {
                    // Stalled: no watermark movement within the
                    // window.  SIGKILL (a stuck process may ignore
                    // anything gentler) and reassign.
                    shard.child.kill(SIGKILL);
                    shard.child.wait();
                    ++stats.watchdog_kills;
                    if (startup)
                        ++stats.watchdog_startup_kills;
                    else
                        ++stats.watchdog_stall_kills;
                    ++stats.slots[shard.slot].watchdog_kills;
                    settle_exit(shard);
                }
            } else if (shard.status == Shard_state::Status::adopted) {
                // Not our child: its lock stands in for try_wait.  A dead
                // writer's shard relaunches at once; a live one that
                // stalls for a heartbeat window is launched over.
                const bool alive = util::stderr_lock_held(
                    worker_log_path(config.work_dir, shard.index));
                poll_shard(shard);
                if (shard.have == shard.task_count)
                    shard.status = Shard_state::Status::done;
                else if (!alive
                         || clock::now() - shard.last_progress
                                > config.heartbeat_timeout)
                    shard.status = Shard_state::Status::pending;
            }
        }

        // ---- dispatch: idle slots pull pending shards in order -------
        for (Shard_state& shard : shards) {
            if (shard.status != Shard_state::Status::pending)
                continue;
            if (clock::now() < shard.next_launch)
                continue; // backoff window after a failed attempt
            std::size_t slot = no_slot;
            for (std::size_t s = 0; s < workers; ++s) {
                if (slot_shard[s] == no_slot) {
                    slot = s;
                    break;
                }
            }
            if (slot == no_slot)
                break; // every worker is busy

            Worker_request request;
            request.shard_index = shard.index;
            request.shard_count = shard_count;
            request.journal_path = shard_journal_path(worker_journal_dir, shard.index);
            // Resume whenever a prior attempt may have left a journal:
            // the mirror proves one existed, and any earlier worker (its
            // log exists, from before a restart too) could have written
            // one the coordinator cannot see (a remote filesystem).
            // anc_sweep degrades --resume of a missing/unusable journal
            // to a fresh start.
            const std::string log = worker_log_path(config.work_dir, shard.index);
            request.resume = shard.tailer.have_header() || shard.attempts > 0
                             || ::access(log.c_str(), F_OK) == 0;
            request.attempt = shard.attempts + 1;
            request.slot = slot;

            shard.child = config.launcher(request);
            ++shard.attempts;
            shard.status = Shard_state::Status::running;
            shard.slot = slot;
            shard.fresh_attempt = !request.resume;
            shard.last_progress = clock::now();
            slot_shard[slot] = shard.index;
            slot_attached[slot] = shard.last_progress;
            ++stats.launches;
            ++stats.slots[slot].launches;
            if (shard.attempts > 1)
                ++stats.reassignments;
            else if (slot_used[slot])
                ++stats.steals; // an idle worker picking up extra work
            slot_used[slot] = 1;
        }

        drain_merge();

        bool active = false;
        for (const Shard_state& shard : shards)
            if (shard.status != Shard_state::Status::done
                && shard.status != Shard_state::Status::failed)
                active = true;
        if (!active)
            break;

        std::this_thread::sleep_for(config.poll_interval);
    }

    if (cancelled) {
        // Graceful teardown: SIGTERM lets workers drain in-flight tasks
        // and flush their journals (the anc_sweep signal contract), then
        // SIGKILL whatever ignores the grace window.
        for (Shard_state& shard : shards)
            if (shard.status == Shard_state::Status::running)
                shard.child.kill(SIGTERM);
        for (Shard_state& shard : shards) {
            if (shard.status != Shard_state::Status::running)
                continue;
            if (!shard.child.wait_for(std::chrono::milliseconds{2000})) {
                shard.child.kill(SIGKILL);
                shard.child.wait();
            }
            // Pick up everything the drain flushed, then release the
            // slot without judging the shard — a cancelled run is
            // incomplete by design, not failed.
            poll_shard(shard);
            if (shard.have == shard.task_count)
                shard.status = Shard_state::Status::done;
            else
                shard.status = Shard_state::Status::pending;
            detach_slot(shard);
        }
        drain_merge();
    }

    for (const Shard_state& shard : shards) {
        if (shard.status == Shard_state::Status::failed)
            ++outcome.failed_shards;
        stats.dropped_lines += shard.tailer.dropped_lines();
    }
    outcome.completed = merged == total;
    outcome.cancelled = cancelled;
    outcome.tally.skipped = total - merged;
    outcome.tally.cancelled = cancelled;
    stats.merged_tasks = merged;
    stats.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
            .count());
    return outcome;
}

} // namespace anc::engine
