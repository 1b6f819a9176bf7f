package main

import "syscall"

// childAttr makes the kernel kill a child process if the benchmark dies
// without stopping it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
