// util::Subprocess — the fork/exec + reap primitive under the sweep
// coordinator: spawn, wait, timeouts, kill, exit-code decoding, output
// redirection, and the stderr lock that tells a restarted coordinator
// which worker trees are still alive.  Everything here must hold
// without leaking zombies (the destructor contract).

#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>

namespace anc::util {
namespace {

struct Temp_path {
    explicit Temp_path(const std::string& name) : path{testing::TempDir() + name}
    {
        std::remove(path.c_str());
    }
    ~Temp_path() { std::remove(path.c_str()); }
    std::string path;
};

/// Poll `done` every 5 ms for up to 10 s; its last answer.
template <class Predicate>
bool eventually(Predicate done)
{
    for (int i = 0; i < 2000 && !done(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
    return done();
}

/// Shell text that waits (30 s at most) until `path` exists.
std::string await(const std::string& path)
{
    return "i=0; until [ -e '" + path + "' ] || [ $i -ge 3000 ]; do sleep 0.01; "
           "i=$((i + 1)); done";
}

TEST(Subprocess, TrueExitsZero)
{
    Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
    EXPECT_GT(child.pid(), 0);
    child.wait();
    EXPECT_TRUE(child.exited());
    EXPECT_EQ(child.exit_code(), 0);
    EXPECT_FALSE(child.signalled());
}

TEST(Subprocess, NonzeroStatusIsReported)
{
    Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "exit 7"});
    child.wait();
    EXPECT_EQ(child.exit_code(), 7);
}

TEST(Subprocess, ExecFailureYields127)
{
    Subprocess child = Subprocess::spawn({"/definitely/not/a/binary"});
    child.wait();
    EXPECT_EQ(child.exit_code(), 127);
}

TEST(Subprocess, TryWaitIsNonBlocking)
{
    Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "sleep 30"});
    EXPECT_FALSE(child.try_wait());
    EXPECT_TRUE(child.running());
    child.kill(SIGKILL);
    child.wait();
    EXPECT_FALSE(child.running());
    EXPECT_TRUE(child.signalled());
    EXPECT_EQ(child.term_signal(), SIGKILL);
    // Death by signal N decodes as the shell convention 128+N.
    EXPECT_EQ(child.exit_code(), 128 + SIGKILL);
}

TEST(Subprocess, WaitForTimesOutThenSucceeds)
{
    Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "sleep 0.2"});
    EXPECT_FALSE(child.wait_for(std::chrono::milliseconds{20}));
    EXPECT_TRUE(child.wait_for(std::chrono::milliseconds{10000}));
    EXPECT_EQ(child.exit_code(), 0);
}

TEST(Subprocess, DestructorKillsAndReaps)
{
    pid_t pid = 0;
    {
        Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "sleep 60"});
        pid = child.pid();
    }
    // After destruction the pid must be gone (not a zombie): waitpid on
    // an already-reaped child of ours is ECHILD.
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
}

TEST(Subprocess, MoveTransfersOwnership)
{
    Subprocess a = Subprocess::spawn({"/bin/sh", "-c", "exit 3"});
    const pid_t pid = a.pid();
    Subprocess b = std::move(a);
    EXPECT_EQ(b.pid(), pid);
    EXPECT_EQ(a.pid(), -1); // NOLINT(bugprone-use-after-move): moved-from probe
    b.wait();
    EXPECT_EQ(b.exit_code(), 3);
}

TEST(Subprocess, StdoutRedirectionAppends)
{
    Temp_path out{"subprocess_stdout.txt"};
    Spawn_options options;
    options.stdout_path = out.path;
    Subprocess::spawn({"/bin/sh", "-c", "echo first"}, options).wait();
    Subprocess::spawn({"/bin/sh", "-c", "echo second"}, options).wait();

    std::ifstream in{out.path};
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "first");
    EXPECT_EQ(line2, "second"); // O_APPEND: relaunches never clobber logs
}

TEST(Subprocess, StderrRedirection)
{
    Temp_path err{"subprocess_stderr.txt"};
    Spawn_options options;
    options.stderr_path = err.path;
    Subprocess::spawn({"/bin/sh", "-c", "echo oops >&2"}, options).wait();

    std::ifstream in{err.path};
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "oops");
}

TEST(Subprocess, KillAfterExitIsHarmless)
{
    Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
    child.wait();
    child.kill(SIGKILL); // no-op, must not throw or signal a stranger
    EXPECT_EQ(child.exit_code(), 0);
}

TEST(Subprocess, StderrLockLivesAsLongAsTheProcessTree)
{
    Temp_path log{"subprocess_lock.log"};
    Temp_path child_gate{"subprocess_lock.child_gate"};
    Temp_path tree_gate{"subprocess_lock.tree_gate"};
    EXPECT_FALSE(stderr_lock_held(log.path)); // no file, no writer

    // The child waits for its gate, then exits, leaving a backgrounded
    // grandchild behind that waits for the second gate.
    Spawn_options options;
    options.stdout_path = "/dev/null";
    options.stderr_path = log.path;
    Subprocess child = Subprocess::spawn(
        {"/bin/sh", "-c",
         await(child_gate.path) + "; (" + await(tree_gate.path) + ") & exit 0"},
        options);
    EXPECT_TRUE(eventually([&] { return stderr_lock_held(log.path); }));

    std::ofstream{child_gate.path};
    EXPECT_EQ(child.wait(), 0);
    EXPECT_TRUE(stderr_lock_held(log.path)); // the grandchild inherited it
    // A second tree on a locked log cannot take the lock; it runs anyway.
    EXPECT_EQ(Subprocess::spawn({"/bin/sh", "-c", "exit 5"}, options).wait(), 5);

    std::ofstream{tree_gate.path};
    EXPECT_TRUE(eventually([&] { return !stderr_lock_held(log.path); }));
}

} // namespace
} // namespace anc::util
