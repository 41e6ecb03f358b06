// rusage_exec OUT PROGRAM [ARGS...]
//
// Runs PROGRAM in a child of this (small) process, waits for it, writes
// "<user s> <sys s> <maxrss KB>\n" of that child to OUT, and exits with
// the child's exit code (128 + signal if it was killed).
//
// Why not wait4 from the benchmark driver directly: Linux records the
// high-water RSS of the address space a process replaces at exec in its
// ru_maxrss, and a child spawned by the driver replaces (a copy of) the
// driver's. The program's reported peak could then never read below the
// driver's own, so the driver spawns through this helper.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: rusage_exec OUT PROGRAM [ARGS...]\n");
    return 2;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("rusage_exec: fork");
    return 2;
  }
  if (pid == 0) {
    execv(argv[2], argv + 2);
    std::perror("rusage_exec: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage ru = {};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("rusage_exec: wait4");
    return 2;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("rusage_exec: open");
    return 2;
  }
  std::fprintf(out, "%ld.%06ld %ld.%06ld %ld\n",
               static_cast<long>(ru.ru_utime.tv_sec),
               static_cast<long>(ru.ru_utime.tv_usec),
               static_cast<long>(ru.ru_stime.tv_sec),
               static_cast<long>(ru.ru_stime.tv_usec), ru.ru_maxrss);
  if (std::fclose(out) != 0) return 2;
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
