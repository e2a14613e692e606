/* CPU affinity for the benchmark's own processes (Linux). */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

/* Whether this process may run on [cpu]. */
value refspeed_cpu_allowed(value cpu)
{
  cpu_set_t set;
  int c = Int_val(cpu);
  if (c < 0 || c >= CPU_SETSIZE) return Val_false;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_false;
  return Val_bool(CPU_ISSET(c, &set));
}

/* Let process [pid] (0: this one) run on the CPUs whose bits are set in
   [mask] (CPUs 0 to 61); false when refused. */
value refspeed_set_cpus(value pid, value mask)
{
  cpu_set_t set;
  long m = Long_val(mask);
  CPU_ZERO(&set);
  for (int c = 0; c < 62; c++)
    if (m & (1L << c)) CPU_SET(c, &set);
  return Val_bool(sched_setaffinity((pid_t)Int_val(pid), sizeof set, &set) == 0);
}
