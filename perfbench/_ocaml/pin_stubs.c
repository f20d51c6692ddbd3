/* CPU placement for the benchmark's processes (sched_setaffinity). */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* The n-th CPU this process may run on, or -1. */
value perfbench_nth_cpu(value n)
{
  cpu_set_t set;
  int seen = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set) && seen++ == Int_val(n)) return Val_int(c);
  return Val_int(-1);
}

/* Run this process on [cpu] only; false when refused. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
