/* rusage_exec REPORT PROGRAM [ARGS...]
 *
 * Runs PROGRAM as a child and writes "<user_s> <sys_s> <maxrss_kb>\n" of
 * that child alone to REPORT, then exits with its status (128 + signal
 * number when it was killed).
 *
 * A process started straight from the benchmark's Python interpreter
 * inherits the interpreter's peak RSS in its own ru_maxrss (fork copies
 * the address space, and exec keeps the high-water mark), so the
 * simulator's peak would read no lower than the interpreter's. Forked from
 * this small process it starts from a near-empty high-water mark.
 *
 * SIGTERM, or the death of the launcher's parent, kills the child, and the
 * launcher reaps it before it exits, so no process outlives the benchmark.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

static volatile sig_atomic_t child = 0;

static void kill_child(int sig) {
  (void)sig;
  if (child > 0) kill(child, SIGKILL);
}

int main(int argc, char** argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: rusage_exec REPORT PROGRAM [ARGS...]\n");
    return 2;
  }
  /* SIGTERM stays blocked until the child's pid is known to the handler. */
  sigset_t term, old;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  sigprocmask(SIG_BLOCK, &term, &old);
  if (prctl(PR_SET_PDEATHSIG, SIGTERM) != 0) return 2;

  const pid_t self = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    perror("rusage_exec: fork");
    return 2;
  }
  if (pid == 0) {
    /* Die with the launcher, even if it is killed outright. */
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != self) _exit(127);
    sigprocmask(SIG_SETMASK, &old, NULL);
    execv(argv[2], argv + 2);
    perror("rusage_exec: exec");
    _exit(127);
  }
  child = pid;
  struct sigaction sa = {0};
  sa.sa_handler = kill_child;
  sigaction(SIGTERM, &sa, NULL);
  sigprocmask(SIG_SETMASK, &old, NULL);

  int status = 0;
  struct rusage ru;
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      perror("rusage_exec: wait4");
      return 2;
    }
  }
  FILE* out = fopen(argv[1], "w");
  if (out == NULL || fprintf(out, "%ld.%06ld %ld.%06ld %ld\n", (long)ru.ru_utime.tv_sec,
                             (long)ru.ru_utime.tv_usec, (long)ru.ru_stime.tv_sec,
                             (long)ru.ru_stime.tv_usec, ru.ru_maxrss) < 0 ||
      fclose(out) != 0) {
    perror("rusage_exec: report");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
