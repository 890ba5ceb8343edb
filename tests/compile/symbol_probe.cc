// Symbol gate probe: tests/compile/symbol_probe.cmake archives this TU once
// per shape into a throwaway libdufs_probe.a and runs the symbol gate on it.
// Every shape reaches a clock or an entropy source and must fail the gate;
// the control (no shape defined) must pass.
#include <sys/time.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

long long ProbeValue() {
#if defined(PROBE_STEADY_CLOCK)
  return std::chrono::steady_clock::now().time_since_epoch().count();
#elif defined(PROBE_SYSTEM_CLOCK)
  return std::chrono::system_clock::now().time_since_epoch().count();
#elif defined(PROBE_RAND)
  return std::rand();
#elif defined(PROBE_SRAND)
  std::srand(7);
  return 0;
#elif defined(PROBE_RANDOM_DEVICE)
  std::random_device rd;
  return rd();
#elif defined(PROBE_TIME)
  return std::time(nullptr);
#elif defined(PROBE_CLOCK_GETTIME)
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_nsec;
#elif defined(PROBE_GETTIMEOFDAY)
  timeval tv;
  gettimeofday(&tv, nullptr);
  return tv.tv_usec;
#elif defined(PROBE_SETITIMER)
  itimerval it{};
  return setitimer(ITIMER_PROF, &it, nullptr);
#else
  return 42;
#endif
}
