// In-process sampling profiler, loaded with LD_PRELOAD (see README.md).
// A helper thread sends SIGPROF to every running thread of the process every
// PROF_PERIOD_US microseconds (default 500); the handler records the thread,
// a monotonic timestamp, the interrupted pc and the frame-pointer chain.
// At exit the samples go to $PROF_OUT (default prof.out) and the address map
// to $PROF_OUT.maps.
#define _GNU_SOURCE
#include <dirent.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 64
#define SLOT (DEPTH + 3)
static uintptr_t *buf;
static size_t cap, used;
static volatile int stop;
static pthread_t helper;
static char names[4096][20]; // thread names, by tid modulo 4096

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig, (void)si;
  size_t n = __atomic_fetch_add(&used, 1, __ATOMIC_RELAXED);
  if (n >= cap) return;
  mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
  uintptr_t *s = buf + n * SLOT, fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP];
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  s[0] = syscall(SYS_gettid), s[1] = t.tv_sec * 1000000000ull + t.tv_nsec, s[2] = m->gregs[REG_RIP];
  int d = 3; // a frame is [saved fp, return address]; stop where the chain leaves the stack
  for (; d < SLOT && fp >= sp && fp < sp + (8 << 20) && !(fp & 7); d++) {
    uintptr_t *f = (uintptr_t *)fp;
    s[d] = f[1];
    fp = f[0] > fp ? f[0] : 0;
  }
  if (d < SLOT) s[d] = 0;
}

static void *tick(void *arg) {
  long me = syscall(SYS_gettid), period = (long)(intptr_t)arg;
  char path[64], stat[256];
  while (!stop) {
    struct timespec gap = {0, period * 1000};
    nanosleep(&gap, 0);
    DIR *d = opendir("/proc/self/task");
    for (struct dirent *e; d && (e = readdir(d));) {
      long tid = atol(e->d_name);
      snprintf(path, sizeof path, "/proc/self/task/%ld/stat", tid);
      FILE *f = tid && tid != me ? fopen(path, "r") : 0;
      if (!f) continue;
      size_t len = fread(stat, 1, sizeof stat - 1, f);
      fclose(f);
      stat[len] = 0;
      char *open = strchr(stat, '('), *close = strrchr(stat, ')');
      if (!open || !close || close[2] != 'R') continue;
      char *name = names[tid % 4096];
      snprintf(name, sizeof names[0], "%.*s", (int)(close - open - 1), open + 1);
      for (char *c = name; *c; c++) *c = *c == ' ' ? '_' : *c;
      syscall(SYS_tgkill, getpid(), tid, SIGPROF);
    }
    if (d) closedir(d);
  }
  return 0;
}

__attribute__((constructor)) static void start(void) {
  const char *c = getenv("PROF_MAX_SAMPLES"), *p = getenv("PROF_PERIOD_US");
  cap = c ? strtoul(c, 0, 10) : 200000;
  buf = calloc(cap, SLOT * sizeof *buf);
  struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
  sigaction(SIGPROF, &sa, 0);
  pthread_create(&helper, 0, tick, (void *)(intptr_t)(p ? atol(p) : 500));
}

__attribute__((destructor)) static void finish(void) {
  stop = 1;
  pthread_join(helper, 0);
  const char *out = getenv("PROF_OUT") ? getenv("PROF_OUT") : "prof.out";
  char maps[4096];
  size_t len;
  FILE *f = fopen(out, "w");
  size_t n = used < cap ? used : cap;
  for (size_t i = 0; f && i < n; i++) {
    uintptr_t *s = buf + i * SLOT;
    fprintf(f, "%lu %s %lu", (unsigned long)s[0], names[s[0] % 4096], (unsigned long)s[1]);
    for (int d = 2; d < SLOT && s[d]; d++) fprintf(f, " %lx", (unsigned long)s[d]);
    fputc('\n', f);
  }
  if (f) fclose(f);
  snprintf(maps, sizeof maps, "%s.maps", out);
  FILE *from = fopen("/proc/self/maps", "r"), *to = fopen(maps, "w");
  while (from && to && (len = fread(maps, 1, sizeof maps, from))) fwrite(maps, 1, len, to);
  if (from) fclose(from);
  if (to) fclose(to);
  fprintf(stderr, "sampler: %zu samples (%zu dropped) -> %s\n", n, used - n, out);
}
