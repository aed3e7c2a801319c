/* sweep_launch — run one command and measure it from outside.
 *
 *   sweep_launch [--ready-threads N] [--ready-file PATH]... [--stop-when-ready]
 *                -- CMD ARGS...
 *
 * Forks and execs CMD with stdout on /dev/null (stderr is inherited),
 * waits for it, and prints one line on stdout:
 *
 *   wall_ns=<n> setup_ns=<n> cpu_ns=<n> maxrss_kb=<n> status=<n>
 *
 * wall_ns is fork to reap.  setup_ns is fork to the first moment the
 * command is seen starting work: with --ready-threads N, when the
 * process has N threads (the sweep executor starts its workers right
 * before the first task); with --ready-file, when any named file is
 * non-empty (a sweep worker writes its journal header right before its
 * first task).  The launcher polls only until then, so the rest of the
 * run sees no competition from it.  --stop-when-ready then sends the
 * command SIGTERM, which the sweep binaries answer by draining the
 * tasks in flight and exiting with status 4: a set-up probe that costs
 * one task instead of a whole sweep.  cpu_ns is user plus system time of
 * the command and every descendant it reaped; maxrss_kb is the largest
 * resident set among them.  status is the exit code, or 128 + signal.
 *
 * Written in C so that the launcher's own resident set, which Linux
 * carries into a forked child's peak, stays below the command's.
 */
#define _GNU_SOURCE
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

enum { max_ready_files = 16 };

static long long now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int thread_count(pid_t pid)
{
    char path[64];
    snprintf(path, sizeof path, "/proc/%d/task", (int)pid);
    DIR* dir = opendir(path);
    if (dir == NULL)
        return -1;
    int count = 0;
    const struct dirent* entry;
    while ((entry = readdir(dir)) != NULL)
        if (entry->d_name[0] != '.')
            ++count;
    closedir(dir);
    return count;
}

static int any_file_nonempty(char* const* paths, int count)
{
    for (int i = 0; i < count; ++i) {
        struct stat info;
        if (stat(paths[i], &info) == 0 && info.st_size > 0)
            return 1;
    }
    return 0;
}

static int usage(void)
{
    fprintf(stderr, "usage: sweep_launch [--ready-threads N] [--ready-file PATH]... "
                    "[--stop-when-ready] -- CMD ARGS...\n");
    return 2;
}

int main(int argc, char** argv)
{
    int ready_threads = 0;
    char* ready_files[max_ready_files];
    int ready_file_count = 0;
    int stop_when_ready = 0;
    int i = 1;
    for (; i < argc && strcmp(argv[i], "--") != 0; ++i) {
        if (strcmp(argv[i], "--ready-threads") == 0 && i + 1 < argc)
            ready_threads = atoi(argv[++i]);
        else if (strcmp(argv[i], "--ready-file") == 0 && i + 1 < argc
                 && ready_file_count < max_ready_files)
            ready_files[ready_file_count++] = argv[++i];
        else if (strcmp(argv[i], "--stop-when-ready") == 0)
            stop_when_ready = 1;
        else
            return usage();
    }
    if (i + 1 >= argc)
        return usage();
    char** command = argv + i + 1;
    const int probing = ready_threads > 0 || ready_file_count > 0;

    const long long start = now_ns();
    const pid_t pid = fork();
    if (pid < 0) {
        perror("sweep_launch: fork");
        return 2;
    }
    if (pid == 0) {
        const int null_fd = open("/dev/null", O_WRONLY);
        if (null_fd >= 0)
            dup2(null_fd, STDOUT_FILENO);
        execvp(command[0], command);
        perror("sweep_launch: exec");
        _exit(127);
    }

    long long setup = 0;
    int status = 0;
    struct rusage usage_info;
    int reaped = 0;
    while (probing && setup == 0) {
        if ((ready_threads > 0 && thread_count(pid) >= ready_threads)
            || (ready_file_count > 0 && any_file_nonempty(ready_files, ready_file_count))) {
            setup = now_ns() - start;
            if (stop_when_ready)
                kill(pid, SIGTERM);
            break;
        }
        if (wait4(pid, &status, WNOHANG, &usage_info) == pid) {
            reaped = 1; /* exited before it was seen starting work */
            break;
        }
        sched_yield();
    }
    if (!reaped && wait4(pid, &status, 0, &usage_info) != pid) {
        perror("sweep_launch: wait4");
        return 2;
    }
    const long long wall = now_ns() - start;
    const long long cpu =
        ((long long)usage_info.ru_utime.tv_sec + usage_info.ru_stime.tv_sec) * 1000000000LL
        + ((long long)usage_info.ru_utime.tv_usec + usage_info.ru_stime.tv_usec) * 1000LL;
    const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                     : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                           : 255;
    printf("wall_ns=%lld setup_ns=%lld cpu_ns=%lld maxrss_kb=%ld status=%d\n", wall, setup,
           cpu, usage_info.ru_maxrss, code);
    return 0;
}
