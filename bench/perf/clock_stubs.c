/* Monotonic nanosecond clock for the benchmark's span and latency
   timers: CLOCK_MONOTONIC is immune to wall-clock steps and has
   nanosecond resolution, where Unix.gettimeofday only has microseconds. */

#include <time.h>
#include <caml/mlvalues.h>

intnat perf_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perf_now_ns_byte(value unit)
{
  return Val_long(perf_now_ns(unit));
}
