/* A statistical CPU profiler small enough to read in one sitting, loaded
 * into a process with LD_PRELOAD (scripts/profile.sh builds and drives it).
 *
 * ITIMER_PROF asks for a SIGPROF after every millisecond of CPU time the
 * process consumes (all threads together; the kernel delivers them at its
 * timer tick, often 250 Hz). The handler records the interrupted
 * instruction pointer from the signal's ucontext. At exit the object writes
 * `$SAMPLER_OUT.<pid>`: a line `exe <path>`, a line `outside <n>` (samples
 * that landed outside the executable's own code, e.g. in libc or the
 * kernel's vDSO), then one line per sample with its address relative to the
 * executable's load base, i.e. the address `addr2line -e <exe>` takes.
 * Without SAMPLER_OUT in the environment the object does nothing.
 *
 * x86-64 Linux only (REG_RIP). A process that dies by a signal or _exit
 * writes nothing.
 */
#define _GNU_SOURCE
#include <elf.h>
#include <link.h>
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* 2^22 samples: over an hour of CPU time at 1 kHz. Untouched pages of this
 * array are never faulted in, so a short run costs little memory. */
#define MAX_SAMPLES (1u << 22)

static uintptr_t samples[MAX_SAMPLES];
static volatile unsigned long n_samples;
static int enabled;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sampler_start(void) {
    if (!getenv("SAMPLER_OUT"))
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    enabled = 1;
}

/* Load bias and executable address range of the main program (the first
 * object dl_iterate_phdr reports). */
struct text {
    uintptr_t bias, lo, hi;
};

static int find_main(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct text *t = data;
    t->bias = info->dlpi_addr;
    t->lo = UINTPTR_MAX;
    t->hi = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        uintptr_t start = info->dlpi_addr + ph->p_vaddr;
        if (start < t->lo)
            t->lo = start;
        if (start + ph->p_memsz > t->hi)
            t->hi = start + ph->p_memsz;
    }
    return 1; /* stop after the main program */
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!enabled)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    char path[PATH_MAX], exe[PATH_MAX];
    snprintf(path, sizeof path, "%s.%d", getenv("SAMPLER_OUT"), (int)getpid());
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len < 0 ? 0 : len] = '\0';
    FILE *f = fopen(path, "w");
    if (!f)
        return;

    struct text t;
    dl_iterate_phdr(find_main, &t);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    unsigned long outside = 0;
    for (unsigned long i = 0; i < n; i++)
        outside += samples[i] < t.lo || samples[i] >= t.hi;
    fprintf(f, "exe %s\noutside %lu\n", exe, outside);
    for (unsigned long i = 0; i < n; i++)
        if (samples[i] >= t.lo && samples[i] < t.hi)
            fprintf(f, "%lx\n", (unsigned long)(samples[i] - t.bias));
    fclose(f);
}
