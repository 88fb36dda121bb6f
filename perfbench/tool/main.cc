// perfbench_tool: the compiled half of the benchmark, run by perfbench/run.py.
// One binary, one subcommand per job:
//
//   gen          seeded inputs: maps, query traces, edit scripts      (gen.cc)
//   check-build  route-text properties and image lookups              (checks.cc)
//   check-batch  `routedb batch` answers against the reference        (checks.cc)
//   load         open-loop load on a running routedbd                 (load.cc)
//   dump         every name through routedbd against the reference    (load.cc)
//   trace        traced in-process replay of every flow               (trace.cc)
//   launch       run one command, record its wall time and peak RSS  (below)

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string_view>

namespace perfbench {
int RunGen(int argc, char** argv);
int RunCheckBuild(int argc, char** argv);
int RunCheckBatch(int argc, char** argv);
int RunLoad(int argc, char** argv);
int RunDump(int argc, char** argv);
int RunTrace(int argc, char** argv);
}  // namespace perfbench

namespace {

// launch OUT -- COMMAND [ARGS...]
//
// Runs COMMAND (stdio inherited) and writes `exit_code wall_seconds maxrss_kib`
// to OUT.  A child's ru_maxrss also counts the memory of the process it was
// forked from (the kernel carries the pre-exec high-water mark across exec), so
// a command forked straight from run.py's Python process reports that process's
// RSS as its floor.  Forked from this small process instead, the floor is this
// process's few MiB.
int RunLaunch(int argc, char** argv) {
  if (argc < 5 || std::string_view(argv[3]) != "--") {
    std::cerr << "usage: perfbench_tool launch OUT -- COMMAND [ARGS...]\n";
    return 2;
  }
  auto start = std::chrono::steady_clock::now();
  pid_t pid = ::fork();
  if (pid == 0) {
    ::execvp(argv[4], argv + 4);
    std::cerr << "launch: cannot run " << argv[4] << "\n";
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid) {
    std::cerr << "launch: cannot start or reap " << argv[4] << "\n";
    return 1;
  }
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::ofstream out(argv[2], std::ios::trunc);
  out.precision(12);
  out << code << " " << wall << " " << usage.ru_maxrss << "\n";
  return out ? code : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string_view command = argc > 1 ? argv[1] : "";
  if (command == "gen") return perfbench::RunGen(argc, argv);
  if (command == "check-build") return perfbench::RunCheckBuild(argc, argv);
  if (command == "check-batch") return perfbench::RunCheckBatch(argc, argv);
  if (command == "load") return perfbench::RunLoad(argc, argv);
  if (command == "dump") return perfbench::RunDump(argc, argv);
  if (command == "trace") return perfbench::RunTrace(argc, argv);
  if (command == "launch") return RunLaunch(argc, argv);
  std::cerr << "usage: perfbench_tool gen|check-build|check-batch|load|dump|trace|launch ...\n";
  return 2;
}
