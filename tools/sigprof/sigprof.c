/* A sampling profiler for a box without perf: preload this into any
 * process and it records the instruction pointer ITIMER_PROF interrupts,
 * every millisecond of CPU time the process burns (all threads; the
 * kernel delivers SIGPROF to a thread that is running). At exit it
 * writes the samples and /proc/self/maps to $SIGPROF_OUT.<pid> (default
 * ./sigprof.<pid>; children inherit the preload and write their own);
 * fold.py turns one such file into a profile.
 *
 *   gcc -O2 -shared -fPIC -o /tmp/sigprof.so tools/sigprof/sigprof.c
 *   SIGPROF_OUT=/tmp/prof LD_PRELOAD=/tmp/sigprof.so <command>
 *
 * x86-64 Linux only (REG_RIP). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 20) /* 17 minutes of CPU at 1 kHz */
static unsigned long samples[CAP];
static unsigned long n_samples;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *stem = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", stem ? stem : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (unsigned long i = 0; i < n_samples && i < CAP; i++)
        fprintf(out, "%lx\n", samples[i]);
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(out);
}
