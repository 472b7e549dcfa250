package core

import "syscall"

// osYield gives the calling thread's CPU to any other runnable thread on
// it (sched_yield), another process's included, before this one resumes.
func osYield() {
	// sched_yield always succeeds on Linux; there is no error to act on.
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
