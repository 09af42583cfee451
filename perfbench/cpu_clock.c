/* The calling thread's CPU clock, for cell.ml.  Under paravirtual steal
   accounting the kernel leaves time the host took from the vCPU out of
   task clocks, so this clock follows the program and not the host. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value perfbench_thread_cpu_ns_byte(value unit)
{
  return caml_copy_double(perfbench_thread_cpu_ns(unit));
}
